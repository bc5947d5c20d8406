// E10 — multi-sink query plane: admission routing vs round-robin as the
// sink count grows (ROADMAP "Multi-sink query plane"). Not a paper figure;
// the paper deploys one sink — this bench measures what the N-tree overlay
// costs (cross-tree update overhead) and what the admission policy buys
// (per-sink energy balance) on the scaled topologies.
//
//   bench_multi_sink [--nodes LIST] [--sinks LIST] [--epochs N]
//                    [--threads LIST] [--json FILE]
//
// For each (nodes, sinks, routing, threads) cell: one full fixed-theta
// experiment, wall-clock, the global ledger, the per-sink ledgers, and the
// energy spread ((max-min)/mean of per-sink totals — 0 is perfectly
// balanced). Routing only matters with >= 2 sinks, so the 1-sink cell runs
// once and serves as the baseline for both policies. --threads values are
// worker counts for the epoch engine's sensing phase (0 = all cores; results
// are byte-identical across the axis, only run_seconds moves — the rows
// feed tools/perf_smoke.sh's self-relative speedup guard).
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "net/placement.hpp"

namespace {

using namespace dirq;
using Clock = std::chrono::steady_clock;

struct MsinkRow {
  std::size_t nodes = 0;
  std::int64_t epochs = 0;
  std::size_t sinks = 1;
  std::string routing;  // "admission", "roundrobin", or "-" for 1 sink
  unsigned threads = 1;  // effective worker count (requested, resolved)
  double run_seconds = 0.0;
  double epochs_per_sec = 0.0;
  std::int64_t queries = 0;
  CostUnits dirq_total = 0;
  CostUnits cross_tree_overhead = 0;
  double energy_spread = 0.0;           // (max-min)/mean of sink totals
  std::vector<CostUnits> sink_totals;   // per-sink ledger totals
  std::vector<std::int64_t> sink_queries;
};

MsinkRow run_cell(std::size_t nodes, std::int64_t epochs, std::size_t sinks,
                  core::RoutingPolicy routing, unsigned threads) {
  MsinkRow row;
  row.nodes = nodes;
  row.epochs = epochs;
  row.sinks = sinks;
  row.routing = sinks < 2 ? "-"
                : routing == core::RoutingPolicy::RoundRobin ? "roundrobin"
                                                             : "admission";

  core::ExperimentConfig cfg;
  cfg.seed = 42;
  cfg.placement = net::scaled_placement(nodes);
  cfg.epochs = epochs;
  cfg.network.mode = core::NetworkConfig::ThetaMode::Fixed;
  cfg.network.fixed_pct = 5.0;
  cfg.keep_records = false;
  cfg.sink_count = sinks;
  cfg.routing = routing;
  cfg.threads = threads;
  row.threads = core::Experiment::effective_threads(cfg);

  const auto start = Clock::now();
  const core::ExperimentResults res = core::Experiment(cfg).run();
  row.run_seconds = std::chrono::duration<double>(Clock::now() - start).count();
  row.epochs_per_sec = row.run_seconds > 0.0
                           ? static_cast<double>(epochs) / row.run_seconds
                           : 0.0;
  row.queries = res.queries;
  row.dirq_total = res.ledger.total();
  row.cross_tree_overhead = res.cross_tree_update_overhead;
  row.energy_spread = res.sink_energy_spread();
  for (const core::CostLedger& led : res.sink_ledgers) {
    row.sink_totals.push_back(led.total());
  }
  row.sink_queries = res.sink_queries;
  return row;
}

template <typename T>
void write_array(std::ofstream& out, const std::vector<T>& xs) {
  out << '[';
  for (std::size_t i = 0; i < xs.size(); ++i) out << (i ? ", " : "") << xs[i];
  out << ']';
}

void write_json(const std::string& path, const std::vector<MsinkRow>& rows) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_multi_sink: cannot open " << path << "\n";
    std::exit(1);
  }
  out << "{\n  \"schema\": \"dirq.msink.v1\",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const MsinkRow& r = rows[i];
    out << "    {\"nodes\": " << r.nodes << ", \"epochs\": " << r.epochs
        << ", \"sinks\": " << r.sinks << ", \"routing\": \"" << r.routing
        << "\", \"threads\": " << r.threads
        << ", \"run_seconds\": " << r.run_seconds
        << ", \"epochs_per_sec\": " << r.epochs_per_sec
        << ", \"queries\": " << r.queries
        << ", \"dirq_total\": " << r.dirq_total
        << ", \"cross_tree_overhead\": " << r.cross_tree_overhead
        << ", \"energy_spread\": " << r.energy_spread
        << ", \"sink_totals\": ";
    write_array(out, r.sink_totals);
    out << ", \"sink_queries\": ";
    write_array(out, r.sink_queries);
    out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

std::vector<std::size_t> parse_list(const char* flag, const char* value,
                                    std::int64_t min) {
  std::vector<std::size_t> out;
  std::string item;
  for (const char* p = value;; ++p) {
    if (*p == ',' || *p == '\0') {
      out.push_back(static_cast<std::size_t>(
          bench::parse_count("bench_multi_sink", flag, item, min)));
      item.clear();
      if (*p == '\0') break;
    } else {
      item.push_back(*p);
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> node_counts{500, 1000, 2000};
  std::vector<std::size_t> sink_counts{1, 2, 4, 8};
  std::vector<std::size_t> thread_counts{1};
  std::int64_t epochs = 2000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--nodes" && next != nullptr) {
      node_counts = parse_list("--nodes", next, 1);
      ++i;
    } else if (arg == "--sinks" && next != nullptr) {
      sink_counts = parse_list("--sinks", next, 1);
      ++i;
    } else if (arg == "--threads" && next != nullptr) {
      // 0 is meaningful: all hardware threads (resolved into the row).
      thread_counts = parse_list("--threads", next, 0);
      ++i;
    } else if (arg == "--epochs" && next != nullptr) {
      epochs = bench::parse_count("bench_multi_sink", "--epochs", next);
      ++i;
    } else if (arg == "--json" && next != nullptr) {
      json_path = next;
      ++i;
    } else {
      std::cerr << "usage: bench_multi_sink [--nodes LIST] [--sinks LIST]"
                   " [--epochs N] [--threads LIST] [--json FILE]\n";
      return 2;
    }
  }

  dirq::bench::print_header(
      "E10 — multi-sink query plane: admission vs round-robin",
      "ROADMAP 'Multi-sink query plane'; fixed theta=5%, spread roots");

  std::vector<MsinkRow> rows;
  for (std::size_t n : node_counts) {
    for (std::size_t s : sink_counts) {
      for (std::size_t th : thread_counts) {
        const auto threads = static_cast<unsigned>(th);
        if (s < 2) {
          rows.push_back(
              run_cell(n, epochs, s, core::RoutingPolicy::Admission, threads));
          std::cerr << "  " << n << "n x " << s << " sink x "
                    << rows.back().threads << "t done ("
                    << dirq::metrics::fmt(rows.back().run_seconds) << " s)\n";
          continue;
        }
        for (const core::RoutingPolicy policy :
             {core::RoutingPolicy::Admission,
              core::RoutingPolicy::RoundRobin}) {
          rows.push_back(run_cell(n, epochs, s, policy, threads));
          std::cerr << "  " << n << "n x " << s << " sinks ("
                    << rows.back().routing << ") x " << rows.back().threads
                    << "t done ("
                    << dirq::metrics::fmt(rows.back().run_seconds) << " s)\n";
        }
      }
    }
  }

  dirq::metrics::TsvBlock tsv(
      "multi-sink tier: overlay cost + energy balance",
      {"nodes", "epochs", "sinks", "routing", "threads", "run_s",
       "epochs_per_s", "queries", "dirq_total", "xtree_overhead",
       "energy_spread"});
  for (const MsinkRow& r : rows) {
    tsv.add_row({std::to_string(r.nodes), std::to_string(r.epochs),
                 std::to_string(r.sinks), r.routing,
                 std::to_string(r.threads),
                 dirq::metrics::fmt(r.run_seconds, 3),
                 dirq::metrics::fmt(r.epochs_per_sec, 1),
                 std::to_string(r.queries), std::to_string(r.dirq_total),
                 std::to_string(r.cross_tree_overhead),
                 dirq::metrics::fmt(r.energy_spread, 3)});
  }
  tsv.print(std::cout);

  if (!json_path.empty()) {
    write_json(json_path, rows);
    std::cerr << "bench_multi_sink: wrote " << json_path << "\n";
  }
  return 0;
}
