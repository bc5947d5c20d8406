// The bench harness shared by the scaled-tier drivers: the comma-list
// parser and the row writer behind dirq.scale.v1, dirq.msink.v1 and
// dirq.serve_bench.v1.
#include "bench_util.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

namespace {

using dirq::bench::parse_count;
using dirq::bench::parse_list;
using dirq::bench::Row;

std::vector<std::int64_t> counts(const std::string& value,
                                 std::int64_t min = 1) {
  return parse_list("bench_test", "--nodes", value,
                    [min](const std::string& s) {
                      return parse_count("bench_test", "--nodes", s, min);
                    });
}

TEST(BenchParseList, SplitsOnCommas) {
  EXPECT_EQ(counts("500,2000"), (std::vector<std::int64_t>{500, 2000}));
  EXPECT_EQ(counts("7"), (std::vector<std::int64_t>{7}));
}

TEST(BenchParseList, AcceptsZeroWhenTheMinimumIsZero) {
  EXPECT_EQ(counts("0", /*min=*/0), (std::vector<std::int64_t>{0}));
  EXPECT_EQ(counts("1,0", /*min=*/0), (std::vector<std::int64_t>{1, 0}));
}

TEST(BenchParseList, RealElements) {
  const auto rates =
      parse_list("bench_test", "--loss", "0,0.15", [](const std::string& s) {
        return dirq::bench::parse_real(
            "bench_test", "--loss", s, "rates in [0, 1)",
            [](double r) { return r >= 0.0 && r < 1.0; });
      });
  EXPECT_EQ(rates, (std::vector<double>{0.0, 0.15}));
}

TEST(BenchParseListDeathTest, EmptyOrBadElementsExitTwo) {
  for (const char* bad : {"", "1,", ",1", "1,,2", "x"}) {
    EXPECT_EXIT(counts(bad), ::testing::ExitedWithCode(2),
                "bench_test: --nodes")
        << "input: '" << bad << "'";
  }
}

TEST(BenchParseListDeathTest, BelowMinimumExitsTwo) {
  EXPECT_EXIT(counts("0"), ::testing::ExitedWithCode(2), "bench_test");
}

TEST(BenchParseRealDeathTest, TrailingJunkExitsTwo) {
  EXPECT_EXIT(dirq::bench::parse_real("bench_test", "--rates", "5x",
                                      "positive numbers",
                                      [](double r) { return r > 0.0; }),
              ::testing::ExitedWithCode(2), "--rates expects positive");
}

// The document bench_multi_sink wrote with its own emitter before the
// shared writer, for the same two rows: the writer must reproduce it byte
// for byte (the checked-in baselines and perf_smoke's line greps rely on
// this layout).
TEST(BenchWriteRows, ReproducesTheMsinkDocument) {
  const std::vector<std::int64_t> totals_one{12345};
  const std::vector<std::int64_t> queries_one{100};
  const std::vector<std::int64_t> totals_four{3001, 2999, 3100, 2900};
  const std::vector<std::int64_t> queries_four{25, 26, 24, 25};
  std::vector<Row> rows(2);
  rows[0]
      .add("nodes", std::size_t{500})
      .add("epochs", std::int64_t{2000})
      .add("sinks", std::size_t{1})
      .add("routing", "-")
      .add("threads", 1u)
      .add("run_seconds", 0.5)
      .add("epochs_per_sec", 4000.0)
      .add("queries", std::int64_t{100})
      .add("dirq_total", std::int64_t{12345})
      .add("cross_tree_overhead", std::int64_t{0})
      .add("energy_spread", 0.0)
      .add("sink_totals", totals_one)
      .add("sink_queries", queries_one);
  rows[1]
      .add("nodes", std::size_t{500})
      .add("epochs", std::int64_t{2000})
      .add("sinks", std::size_t{4})
      .add("routing", std::string("admission"))
      .add("threads", 4u)
      .add("run_seconds", 1.234567891)
      .add("epochs_per_sec", 1620.0001)
      .add("queries", std::int64_t{100})
      .add("dirq_total", std::int64_t{12000})
      .add("cross_tree_overhead", std::int64_t{3456})
      .add("energy_spread", 0.0123456789)
      .add("sink_totals", totals_four)
      .add("sink_queries", queries_four);

  std::ostringstream out;
  dirq::bench::write_rows(out, "dirq.msink.v1", rows);
  EXPECT_EQ(
      out.str(),
      "{\n"
      "  \"schema\": \"dirq.msink.v1\",\n"
      "  \"rows\": [\n"
      "    {\"nodes\": 500, \"epochs\": 2000, \"sinks\": 1, \"routing\": "
      "\"-\", \"threads\": 1, \"run_seconds\": 0.5, \"epochs_per_sec\": "
      "4000, \"queries\": 100, \"dirq_total\": 12345, "
      "\"cross_tree_overhead\": 0, \"energy_spread\": 0, \"sink_totals\": "
      "[12345], \"sink_queries\": [100]},\n"
      "    {\"nodes\": 500, \"epochs\": 2000, \"sinks\": 4, \"routing\": "
      "\"admission\", \"threads\": 4, \"run_seconds\": 1.23457, "
      "\"epochs_per_sec\": 1620, \"queries\": 100, \"dirq_total\": 12000, "
      "\"cross_tree_overhead\": 3456, \"energy_spread\": 0.0123457, "
      "\"sink_totals\": [3001, 2999, 3100, 2900], \"sink_queries\": [25, "
      "26, 24, 25]}\n"
      "  ]\n"
      "}\n");
}

TEST(BenchWriteRows, BoolsAndEmptyDocument) {
  std::vector<Row> rows(1);
  rows[0].add("cache", true).add("hit_rate", 0.25);
  std::ostringstream out;
  dirq::bench::write_rows(out, "s", rows);
  EXPECT_EQ(out.str(),
            "{\n  \"schema\": \"s\",\n  \"rows\": [\n"
            "    {\"cache\": true, \"hit_rate\": 0.25}\n  ]\n}\n");

  std::ostringstream empty;
  dirq::bench::write_rows(empty, "s", {});
  EXPECT_EQ(empty.str(), "{\n  \"schema\": \"s\",\n  \"rows\": [\n  ]\n}\n");
}

}  // namespace
