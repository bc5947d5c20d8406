// Shared helpers for the bench drivers.
//
// The §7 configuration vocabulary (paper_config, theta/relevant axes) lives
// in sweep/plan.hpp so the grid is defined in exactly one place; the figure
// benches declare an ExperimentPlan, run it through SweepRunner, and render
// rows through ResultSinks.
//
// The scaled-tier benches (scale_topology, multi_sink, serve_throughput)
// describe each cell as one bench::Row: ordered key/value pairs, each value
// rendered once with its operator<<. bench::report prints the rows as a TSV
// block whose columns are the keys and, given --json FILE, writes the same
// rows as one {"schema": ..., "rows": [...]} document, one row per line —
// the line-oriented layout tools/perf_smoke.sh reads and bench/baselines/
// holds. Every list-valued bench flag goes through bench::parse_list.
#pragma once

#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "core/experiment.hpp"
#include "metrics/report.hpp"
#include "sweep/plan.hpp"
#include "sweep/runner.hpp"
#include "sweep/sink.hpp"

namespace dirq::bench {

/// Strict positive-integer parse shared by the standalone bench tools
/// (same contract as dirqsim's parse_int: the whole token must be base-10,
/// no wrap, no truncation; < min is an error). The default min of 1 fits
/// counts; flags where 0 is meaningful (--threads: all hardware threads)
/// pass min = 0. Exits 2 on bad input.
inline std::int64_t parse_count(const char* tool, const char* flag,
                                const std::string& value,
                                std::int64_t min = 1) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE || v < min) {
    std::cerr << tool << ": " << flag << " expects an integer >= " << min
              << ", got: '" << value << "'\n";
    std::exit(2);
  }
  return static_cast<std::int64_t>(v);
}

/// Strict real parse: the whole token must be a number (no trailing junk,
/// no overflow) for which `in_range` holds; `expects` names the accepted
/// range in the error. Exits 2 on bad input.
inline double parse_real(const char* tool, const char* flag,
                         const std::string& value, const char* expects,
                         bool (*in_range)(double)) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || errno == ERANGE ||
      !in_range(v)) {
    std::cerr << tool << ": " << flag << " expects " << expects
              << ", got: '" << value << "'\n";
    std::exit(2);
  }
  return v;
}

/// Splits `value` on commas and parses each element with
/// `parse_one(element)` (e.g. a parse_count or parse_real call, which exits
/// 2 on a bad element). An empty list or element ("", "1,", ",1", "1,,2")
/// exits 2 naming the tool and flag.
template <typename ParseOne>
auto parse_list(const char* tool, const char* flag, const std::string& value,
                ParseOne parse_one) {
  std::vector<decltype(parse_one(value))> out;
  for (std::size_t begin = 0;;) {
    const std::size_t comma = value.find(',', begin);
    const std::string item = value.substr(begin, comma - begin);
    if (item.empty()) {
      std::cerr << tool << ": " << flag << " has an empty element: '"
                << value << "'\n";
      std::exit(2);
    }
    out.push_back(parse_one(item));
    if (comma == std::string::npos) return out;
    begin = comma + 1;
  }
}

/// One bench result row: ordered key/value pairs. Each value is rendered
/// once with its operator<< (bools as true/false, ranges as [a, b]);
/// string values are quoted in JSON and bare in the TSV.
class Row {
 public:
  struct Cell {
    std::string key;
    std::string text;
    bool quoted = false;
  };

  template <typename T>
  Row& add(std::string key, const T& value) {
    std::ostringstream text;
    bool quoted = false;
    if constexpr (std::is_same_v<T, bool>) {
      text << (value ? "true" : "false");
    } else if constexpr (std::is_convertible_v<const T&, std::string_view>) {
      text << value;
      quoted = true;
    } else if constexpr (requires { value.begin(); }) {
      const char* sep = "";
      text << '[';
      for (const auto& x : value) {
        text << sep << x;
        sep = ", ";
      }
      text << ']';
    } else {
      text << value;
    }
    cells_.push_back({std::move(key), text.str(), quoted});
    return *this;
  }

  [[nodiscard]] const std::vector<Cell>& cells() const noexcept {
    return cells_;
  }

 private:
  std::vector<Cell> cells_;
};

/// Writes `rows` as one {"schema": ..., "rows": [...]} document, one row
/// per line.
inline void write_rows(std::ostream& out, const std::string& schema,
                       const std::vector<Row>& rows) {
  out << "{\n  \"schema\": \"" << schema << "\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const char* sep = "";
    out << "    {";
    for (const Row::Cell& c : rows[i].cells()) {
      out << sep << '"' << c.key << "\": ";
      if (c.quoted) {
        out << '"' << c.text << '"';
      } else {
        out << c.text;
      }
      sep = ", ";
    }
    out << '}' << (i + 1 < rows.size() ? "," : "") << '\n';
  }
  out << "  ]\n}\n";
}

/// The scaled-tier benches' one output path: prints `rows` to stdout as a
/// TSV block titled `title`, and when `json_path` is non-empty writes them
/// there as a `schema` document. Exits 1 naming `tool` when the file cannot
/// be opened.
inline void report(const char* tool, const std::string& title,
                   const std::string& schema, const std::vector<Row>& rows,
                   const std::string& json_path) {
  std::vector<std::string> columns;
  if (!rows.empty()) {
    for (const Row::Cell& c : rows.front().cells()) columns.push_back(c.key);
  }
  metrics::TsvBlock tsv(title, columns);
  for (const Row& r : rows) {
    std::vector<std::string> cells;
    for (const Row::Cell& c : r.cells()) cells.push_back(c.text);
    tsv.add_row(std::move(cells));
  }
  tsv.print(std::cout);

  if (json_path.empty()) return;
  std::ofstream out(json_path);
  if (!out) {
    std::cerr << tool << ": cannot open " << json_path << "\n";
    std::exit(1);
  }
  write_rows(out, schema, rows);
  std::cerr << tool << ": wrote " << json_path << "\n";
}

inline void print_header(const std::string& title, const std::string& paper_ref) {
  std::cout << "==============================================================\n"
            << title << "\n"
            << "(reproduces " << paper_ref << ")\n"
            << "==============================================================\n\n";
}

}  // namespace dirq::bench
