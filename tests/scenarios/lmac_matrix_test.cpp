// LMAC scenario regression tier: the same full-experiment grid as
// scenario_matrix_test.cpp, but with queries and updates riding the TDMA
// slot schedule (TransportKind::Lmac). Golden-checked on the core metrics,
// plus the cost-parity invariant the LMAC backend must share with the
// instant one: the network's ledger reconciles exactly with the per-node
// tx/rx energy attribution.
//
// The grid axes and per-cell config live in scenario_grid.hpp, shared with
// the `scenario_goldens` regenerator tool (tools/scenario_goldens.cpp).
// Exact golden values are libstdc++-specific (std::uniform_real_distribution
// et al. are implementation-defined); elsewhere the tier still runs with
// the structural + determinism + parity assertions.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "core/experiment.hpp"
#include "scenarios/scenario_grid.hpp"
#include "support/ledger_parity.hpp"

namespace dirq::core {
namespace {

struct LmacCase {
  std::uint64_t seed;
  std::size_t nodes;
  double loss;
  // Goldens (libstdc++, any optimisation level — integer exact):
  std::int64_t updates;
  std::int64_t dirq_total_cost;
  std::int64_t flooding_total;
  double coverage_mean;
  double overshoot_mean;
  double receive_mean;
};

constexpr std::int64_t kExpectedQueries =
    scenarios::kEpochs / scenarios::kQueryPeriod - 1;  // 59

// Regenerate with the `scenario_goldens` tool (lmac tier block).
const std::vector<LmacCase>& cases() {
  static const std::vector<LmacCase> kCases = {
      {1, 30, 0.00, 1940, 5578, 8732, 99.5132551065, 28.5835351090, 54.4126241964},
      {1, 30, 0.15, 1736, 4866, 8732, 68.4162165518, 20.8757062147, 37.8141437756},
      {1, 50, 0.00, 2974, 8855, 20178, 98.6521388216, 33.8492090076, 54.9636803874},
      {1, 50, 0.15, 2682, 7520, 20178, 60.7141900104, 18.3192329655, 32.8606018679},
      {42, 30, 0.00, 2197, 6230, 7552, 98.8917861799, 28.1971347861, 56.1659848042},
      {42, 30, 0.15, 1900, 5068, 7552, 57.3842118334, 14.9063295462, 31.8527177089},
      {42, 50, 0.00, 3134, 9079, 18762, 99.1848264730, 29.5766699525, 53.5800760982},
      {42, 50, 0.15, 2800, 7795, 18762, 63.6949822469, 18.2957217187, 34.1058457281},
  };
  return kCases;
}

ExperimentConfig make_config(const LmacCase& c) {
  return scenarios::make_lmac_config(c.seed, c.nodes, c.loss);
}

/// Each cell is simulated once and shared by every assertion suite
/// (RerunIsBitIdentical proves determinism with a deliberate fresh run).
const ExperimentResults& cell_results(const LmacCase& c) {
  using Key = std::tuple<std::uint64_t, std::size_t, std::int64_t>;
  static std::map<Key, ExperimentResults> cache;
  const Key key{c.seed, c.nodes, static_cast<std::int64_t>(c.loss * 100)};
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, Experiment(make_config(c)).run()).first;
  }
  return it->second;
}

TEST(LmacGrid, GoldenTableCoversExactlyTheSharedGrid) {
  std::size_t i = 0;
  scenarios::for_each_lmac_cell(
      [&i](std::uint64_t seed, std::size_t nodes, double loss) {
        ASSERT_LT(i, cases().size());
        EXPECT_EQ(cases()[i].seed, seed) << "row " << i;
        EXPECT_EQ(cases()[i].nodes, nodes) << "row " << i;
        EXPECT_DOUBLE_EQ(cases()[i].loss, loss) << "row " << i;
        ++i;
      });
  EXPECT_EQ(i, cases().size());
}

class LmacMatrix : public ::testing::TestWithParam<LmacCase> {};

TEST_P(LmacMatrix, StructuralInvariantsHold) {
  const LmacCase& c = GetParam();
  const ExperimentResults& res = cell_results(c);

  EXPECT_EQ(res.queries, kExpectedQueries);
  EXPECT_GT(res.updates_transmitted, 0);
  EXPECT_GT(res.ledger.total(), 0);
  EXPECT_GT(res.flooding_total, 0);
  EXPECT_GE(res.coverage_pct.mean(), 0.0);
  EXPECT_LE(res.coverage_pct.mean(), 100.0);
  EXPECT_GE(res.overshoot_pct.mean(), 0.0);
  EXPECT_EQ(static_cast<std::int64_t>(res.updates_per_bin.total()),
            res.updates_transmitted);
  if (c.loss == 0.0) {
    // Slot-synchronous delivery lags the instant transport by at most the
    // dissemination depth in frames; with 20 frames between queries the
    // conservative-range coverage property still holds to the same bound.
    EXPECT_GT(res.coverage_pct.mean(), 95.0);
  } else {
    EXPECT_GT(res.coverage_pct.mean(), 10.0);
  }
}

TEST_P(LmacMatrix, LedgerReconcilesWithPerNodeEnergy) {
  // Cost parity with the instant backend (shared assertion — see
  // tests/support/ledger_parity.hpp for the invariant's statement).
  expect_ledger_reconciles(cell_results(GetParam()));
}

TEST_P(LmacMatrix, MetricsMatchGolden) {
#if !defined(__GLIBCXX__)
  GTEST_SKIP() << "golden values are recorded against libstdc++'s "
                  "distribution implementations";
#else
  const LmacCase& c = GetParam();
  const ExperimentResults& res = cell_results(c);

  EXPECT_EQ(res.updates_transmitted, c.updates);
  EXPECT_EQ(res.ledger.total(), c.dirq_total_cost);
  EXPECT_EQ(res.flooding_total, c.flooding_total);
  EXPECT_NEAR(res.coverage_pct.mean(), c.coverage_mean, 1e-6);
  EXPECT_NEAR(res.overshoot_pct.mean(), c.overshoot_mean, 1e-6);
  EXPECT_NEAR(res.receive_pct.mean(), c.receive_mean, 1e-6);
#endif
}

std::string case_name(const ::testing::TestParamInfo<LmacCase>& info) {
  const LmacCase& c = info.param;
  return "seed" + std::to_string(c.seed) + "_n" + std::to_string(c.nodes) +
         "_loss" + std::to_string(static_cast<int>(c.loss * 100));
}

INSTANTIATE_TEST_SUITE_P(Grid, LmacMatrix, ::testing::ValuesIn(cases()),
                         case_name);

TEST(LmacMatrixCross, RerunIsBitIdentical) {
  // Full determinism on one representative cell (42/50/lossy): scheduler
  // event ordering, slot election, and the loss stream must all replay.
  const LmacCase& c = cases()[7];
  const ExperimentResults& a = cell_results(c);
  const ExperimentResults b = Experiment(make_config(c)).run();
  EXPECT_EQ(a.updates_transmitted, b.updates_transmitted);
  EXPECT_EQ(a.ledger.total(), b.ledger.total());
  EXPECT_EQ(a.flooding_total, b.flooding_total);
  EXPECT_EQ(a.samples_taken, b.samples_taken);
  EXPECT_EQ(a.node_tx, b.node_tx);
  EXPECT_EQ(a.node_rx, b.node_rx);
  EXPECT_DOUBLE_EQ(a.coverage_pct.mean(), b.coverage_pct.mean());
  EXPECT_DOUBLE_EQ(a.overshoot_pct.mean(), b.overshoot_pct.mean());
  EXPECT_DOUBLE_EQ(a.receive_pct.mean(), b.receive_pct.mean());
  EXPECT_DOUBLE_EQ(a.should_pct.mean(), b.should_pct.mean());
}

TEST(LmacMatrixCross, FloodingBaselineMatchesInstantTier) {
  // The analytical flooding baseline depends only on the topology
  // realization, which the transport choice never touches — so each LMAC
  // cell's flooding_total must equal the instant tier's for the same
  // (seed, nodes), pinning that the two backends really simulate the same
  // deployment.
  for (const LmacCase& c : cases()) {
    if (c.loss != 0.0) continue;  // one instant run per (seed, nodes)
    const ExperimentResults instant =
        Experiment(scenarios::make_config(c.seed, c.nodes, 0.0)).run();
    EXPECT_EQ(cell_results(c).flooding_total, instant.flooding_total)
        << "seed " << c.seed << " nodes " << c.nodes;
  }
}

}  // namespace
}  // namespace dirq::core
