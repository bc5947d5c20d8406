// Multi-sink query plane, driver level: single-sink equivalence, 1-vs-N
// determinism, per-sink ledger parity against the global ledger on every
// transport backend, admission-vs-roundrobin behaviour, config
// validation, and the thread-clamp policy (multi-sink is no longer
// clamped — see parallel_multi_sink_test.cpp for the engine itself).
#include <gtest/gtest.h>

#include <stdexcept>

#include "core/experiment.hpp"
#include "support/ledger_parity.hpp"
#include "sweep/sink.hpp"

namespace dirq::core {
namespace {

ExperimentConfig small_config(std::size_t sinks) {
  ExperimentConfig cfg;
  cfg.seed = 42;
  cfg.epochs = 600;
  cfg.query_period = 20;
  cfg.network.mode = NetworkConfig::ThetaMode::Fixed;
  cfg.network.fixed_pct = 5.0;
  cfg.sink_count = sinks;
  cfg.keep_records = false;
  return cfg;
}

/// Componentwise sum of the per-sink mirrors must equal the global ledger:
/// every message is attributed to exactly one tree.
void expect_sink_ledgers_reconcile(const ExperimentResults& res) {
  CostLedger sum;
  std::int64_t queries = 0;
  for (const CostLedger& led : res.sink_ledgers) {
    sum.query_tx += led.query_tx;
    sum.query_rx += led.query_rx;
    sum.update_tx += led.update_tx;
    sum.update_rx += led.update_rx;
    sum.control_tx += led.control_tx;
    sum.control_rx += led.control_rx;
  }
  for (std::int64_t q : res.sink_queries) queries += q;
  EXPECT_EQ(sum.query_tx, res.ledger.query_tx);
  EXPECT_EQ(sum.query_rx, res.ledger.query_rx);
  EXPECT_EQ(sum.update_tx, res.ledger.update_tx);
  EXPECT_EQ(sum.update_rx, res.ledger.update_rx);
  EXPECT_EQ(sum.control_tx, res.ledger.control_tx);
  EXPECT_EQ(sum.control_rx, res.ledger.control_rx);
  EXPECT_EQ(queries, res.queries);
}

TEST(MultiSink, ExplicitRootZeroMatchesDefaultExactly) {
  const ExperimentResults base = Experiment(small_config(1)).run();
  ExperimentConfig cfg = small_config(1);
  cfg.sinks = {0};
  const ExperimentResults explicit_root = Experiment(cfg).run();
  // The full fingerprint (ledger, series, per-node counters) must match:
  // an explicit {0} is the same deployment as the paper's default.
  EXPECT_EQ(sweep::summarize(base), sweep::summarize(explicit_root));
  EXPECT_EQ(base.sink_roots, (std::vector<NodeId>{0}));
}

TEST(MultiSink, RunsAreDeterministic) {
  const ExperimentResults a = Experiment(small_config(4)).run();
  const ExperimentResults b = Experiment(small_config(4)).run();
  EXPECT_EQ(sweep::summarize(a), sweep::summarize(b));
  EXPECT_EQ(a.sink_roots, b.sink_roots);
}

TEST(MultiSink, QueryStreamIsIdenticalAcrossSinkCounts) {
  // Same seed, 1 vs 4 sinks: the workload substream is untouched by the
  // sink count, so both runs inject the same number of queries.
  const ExperimentResults one = Experiment(small_config(1)).run();
  const ExperimentResults four = Experiment(small_config(4)).run();
  EXPECT_EQ(one.queries, four.queries);
  EXPECT_EQ(four.sink_roots.size(), 4u);
}

TEST(MultiSink, SinkLedgersReconcileOnInstantTransport) {
  const ExperimentResults res = Experiment(small_config(4)).run();
  expect_sink_ledgers_reconcile(res);
  expect_ledger_reconciles(res);
}

TEST(MultiSink, SinkLedgersReconcileOnLmac) {
  ExperimentConfig cfg = small_config(3);
  cfg.epochs = 300;
  cfg.transport = TransportKind::Lmac;
  const ExperimentResults res = Experiment(cfg).run();
  expect_sink_ledgers_reconcile(res);
  expect_ledger_reconciles(res);
}

TEST(MultiSink, SinkLedgersReconcileUnderLoss) {
  ExperimentConfig cfg = small_config(3);
  cfg.loss_rate = 0.15;
  const ExperimentResults res = Experiment(cfg).run();
  expect_sink_ledgers_reconcile(res);
  expect_ledger_reconciles(res);
}

TEST(MultiSink, CrossTreeOverheadCountsOnlyExtraTrees) {
  const ExperimentResults one = Experiment(small_config(1)).run();
  EXPECT_EQ(one.cross_tree_update_overhead, 0);
  const ExperimentResults four = Experiment(small_config(4)).run();
  CostUnits expected = 0;
  for (std::size_t k = 1; k < four.sink_ledgers.size(); ++k) {
    expected += four.sink_ledgers[k].update_cost() +
                four.sink_ledgers[k].control_cost();
  }
  EXPECT_EQ(four.cross_tree_update_overhead, expected);
  EXPECT_GT(four.cross_tree_update_overhead, 0);
}

TEST(MultiSink, RoundRobinSpreadsQueryCountsEvenly) {
  ExperimentConfig cfg = small_config(4);
  cfg.routing = RoutingPolicy::RoundRobin;
  const ExperimentResults res = Experiment(cfg).run();
  ASSERT_EQ(res.sink_queries.size(), 4u);
  std::int64_t lo = res.sink_queries[0], hi = res.sink_queries[0];
  for (std::int64_t q : res.sink_queries) {
    lo = std::min(lo, q);
    hi = std::max(hi, q);
  }
  EXPECT_LE(hi - lo, 1);  // modulo counter: counts differ by at most one
  expect_sink_ledgers_reconcile(res);
}

TEST(MultiSink, AdmissionBalancesEnergyAtLeastAsWellAsRoundRobin) {
  ExperimentConfig admission = small_config(4);
  ExperimentConfig rr = small_config(4);
  rr.routing = RoutingPolicy::RoundRobin;
  const ExperimentResults a = Experiment(admission).run();
  const ExperimentResults r = Experiment(rr).run();
  EXPECT_LE(a.sink_energy_spread(), r.sink_energy_spread());
}

TEST(MultiSink, EffectiveThreadsHonoursMultiSinkRequests) {
  // Every backend honours the requested thread count now: only the
  // engine's sensing phase is parallel, while loss verdicts (in the
  // sequential commit phase) and LMAC's slot loop stay sequential, so no
  // configuration clamps back to sequential.
  ExperimentConfig cfg = small_config(4);
  cfg.threads = 4;
  EXPECT_EQ(Experiment::effective_threads(cfg), 4u);
  cfg.transport = TransportKind::Lmac;
  EXPECT_EQ(Experiment::effective_threads(cfg), 4u);
  EXPECT_NE(Experiment::thread_mode_note(cfg), nullptr);
  cfg.transport = TransportKind::Instant;
  cfg.loss_rate = 0.1;
  EXPECT_EQ(Experiment::effective_threads(cfg), 4u);
  EXPECT_EQ(Experiment::thread_mode_note(cfg), nullptr);
}

TEST(MultiSink, ValidateRejectsBadSinkConfigs) {
  ExperimentConfig cfg = small_config(1);
  cfg.sink_count = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config(1);
  cfg.sinks = {0, 0};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config(1);
  cfg.sinks = {0, 9999};
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config(1);
  cfg.sink_count = 100000;  // more sinks than nodes
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(MultiSink, ValidateRejectsBadMultiAttrConfigs) {
  ExperimentConfig cfg = small_config(1);
  cfg.multi_attr_fraction = 1.5;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config(1);
  cfg.multi_attr_fraction = 0.5;
  cfg.multi_attr_count = 1;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
  cfg = small_config(1);
  cfg.multi_attr_fraction = 0.5;
  cfg.multi_attr_count = 100;  // beyond the sensor complement
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}

TEST(MultiSink, MultiAttrMixRunsAndReconciles) {
  ExperimentConfig cfg = small_config(2);
  cfg.multi_attr_fraction = 0.5;
  cfg.multi_attr_count = 2;
  const ExperimentResults res = Experiment(cfg).run();
  EXPECT_GT(res.queries, 0);
  expect_sink_ledgers_reconcile(res);
  expect_ledger_reconciles(res);
}

TEST(MultiSink, ZeroMultiAttrFractionIsByteIdenticalToDefault) {
  // fraction = 0 must not consume the multi-attr substream: the run is
  // indistinguishable from one where the knob does not exist.
  const ExperimentResults base = Experiment(small_config(1)).run();
  ExperimentConfig cfg = small_config(1);
  cfg.multi_attr_fraction = 0.0;
  cfg.multi_attr_count = 3;
  const ExperimentResults res = Experiment(cfg).run();
  EXPECT_EQ(sweep::summarize(base), sweep::summarize(res));
}

}  // namespace
}  // namespace dirq::core
