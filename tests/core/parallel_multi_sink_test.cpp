// Parallel epochs for multi-sink runs: an N-thread multi-sink run must
// produce a byte-identical ExperimentResults summary to the 1-thread run
// (the same contract parallel_epoch_test.cpp pins for one sink), across
// sink counts, routing policies, both field backends, ATC and the
// sampling gate — and the per-sink ledgers must still reconcile
// component-wise against the global ledger.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/network.hpp"
#include "data/field_model.hpp"
#include "net/topology.hpp"
#include "sim/rng.hpp"
#include "sweep/sink.hpp"

namespace dirq::core {
namespace {

constexpr SensorType kT = kSensorTemperature;

ExperimentConfig msink_cfg(std::size_t sinks, RoutingPolicy routing) {
  ExperimentConfig cfg;
  cfg.epochs = 400;
  cfg.epochs_per_hour = 100;
  cfg.seed = 1234;
  cfg.sink_count = sinks;
  cfg.routing = routing;
  return cfg;
}

std::string run_summary(ExperimentConfig cfg, unsigned threads) {
  cfg.threads = threads;
  Experiment exp(cfg);
  return sweep::summarize(exp.run());
}

TEST(ParallelMultiSink, SummariesByteIdenticalAcrossSinkCountsAndPolicies) {
  for (const std::size_t sinks : {2, 4, 8}) {
    for (const RoutingPolicy routing :
         {RoutingPolicy::Admission, RoutingPolicy::RoundRobin}) {
      const ExperimentConfig cfg = msink_cfg(sinks, routing);
      const std::string seq = run_summary(cfg, 1);
      EXPECT_EQ(seq, run_summary(cfg, 2))
          << sinks << " sinks, policy " << static_cast<int>(routing);
      EXPECT_EQ(seq, run_summary(cfg, 4))
          << sinks << " sinks, policy " << static_cast<int>(routing);
    }
  }
}

TEST(ParallelMultiSink, FastBackendSummariesByteIdentical) {
  ExperimentConfig cfg = msink_cfg(4, RoutingPolicy::Admission);
  cfg.field_backend = data::EnvironmentBackend::Fast;
  EXPECT_EQ(run_summary(cfg, 1), run_summary(cfg, 4));
}

TEST(ParallelMultiSink, AtcThetaSummariesByteIdentical) {
  ExperimentConfig cfg = msink_cfg(4, RoutingPolicy::Admission);
  cfg.network.mode = NetworkConfig::ThetaMode::Atc;
  EXPECT_EQ(run_summary(cfg, 1), run_summary(cfg, 4));
}

TEST(ParallelMultiSink, SamplingSuppressionSummariesByteIdentical) {
  // The gated multi-tree walk: one physical sample per node feeds every
  // tree slot, so the shared per-node gate must open and close once per
  // node whatever the sink count — any divergence between the trees'
  // views shows up here as a summary diff.
  ExperimentConfig cfg = msink_cfg(4, RoutingPolicy::Admission);
  cfg.network.sampling.enabled = true;
  EXPECT_EQ(run_summary(cfg, 1), run_summary(cfg, 4));
}

TEST(ParallelMultiSink, SinkLedgersReconcileUnderParallelRuns) {
  ExperimentConfig cfg = msink_cfg(4, RoutingPolicy::Admission);
  cfg.threads = 4;
  const ExperimentResults res = Experiment(cfg).run();
  CostLedger sum;
  for (const CostLedger& led : res.sink_ledgers) {
    sum.query_tx += led.query_tx;
    sum.query_rx += led.query_rx;
    sum.update_tx += led.update_tx;
    sum.update_rx += led.update_rx;
    sum.control_tx += led.control_tx;
    sum.control_rx += led.control_rx;
  }
  EXPECT_EQ(sum.query_tx, res.ledger.query_tx);
  EXPECT_EQ(sum.query_rx, res.ledger.query_rx);
  EXPECT_EQ(sum.update_tx, res.ledger.update_tx);
  EXPECT_EQ(sum.update_rx, res.ledger.update_rx);
  EXPECT_EQ(sum.control_tx, res.ledger.control_tx);
  EXPECT_EQ(sum.control_rx, res.ledger.control_rx);
}

/// Cross shape: three 3-node arms (+x, -x, +y) around node 0. Roots 0 and
/// 3 (the +x arm's tip) give two overlapping spanning trees over the same
/// population — the multi-tree union walk, minimally.
net::Topology cross_topology() {
  std::vector<net::Node> nodes(10);
  const double xs[] = {0, 1, 2, 3, -1, -2, -3, 0, 0, 0};
  const double ys[] = {0, 0, 0, 0, 0, 0, 0, 1, 2, 3};
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    nodes[i].x = xs[i];
    nodes[i].y = ys[i];
    if (i > 0) nodes[i].sensors = {kT};
  }
  return net::Topology(std::move(nodes), 1.1);
}

void expect_networks_identical(DirqNetwork& a, DirqNetwork& b) {
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(a.costs().update_tx, b.costs().update_tx);
  EXPECT_EQ(a.costs().update_rx, b.costs().update_rx);
  EXPECT_EQ(a.costs().control_tx, b.costs().control_tx);
  EXPECT_EQ(a.costs().control_rx, b.costs().control_rx);
  EXPECT_EQ(a.updates_transmitted(), b.updates_transmitted());
  EXPECT_EQ(a.samples_taken(), b.samples_taken());
  for (TreeId t = 0; t < 2; ++t) {
    EXPECT_EQ(a.tree_ledger(t).update_tx, b.tree_ledger(t).update_tx)
        << "tree " << t;
    EXPECT_EQ(a.tree_ledger(t).update_rx, b.tree_ledger(t).update_rx)
        << "tree " << t;
  }
  for (NodeId u = 0; u < a.size(); ++u) {
    EXPECT_EQ(a.node_tx(u), b.node_tx(u)) << "node " << u;
    EXPECT_EQ(a.node_rx(u), b.node_rx(u)) << "node " << u;
  }
  EXPECT_DOUBLE_EQ(a.mean_theta_pct(kT), b.mean_theta_pct(kT));
}

TEST(ParallelMultiSink, ChurnInvalidatesPlanAndMatchesSequentialTwin) {
  NetworkConfig ncfg;
  ncfg.mode = NetworkConfig::ThetaMode::Fixed;
  ncfg.fixed_pct = 5.0;

  net::Topology topo_seq = cross_topology();
  net::Topology topo_par = cross_topology();
  data::Environment env_seq(topo_seq, /*sensor_type_count=*/1, sim::Rng(9));
  data::Environment env_par(topo_par, /*sensor_type_count=*/1, sim::Rng(9));
  DirqNetwork seq(topo_seq, {0, 3}, ncfg);
  DirqNetwork par(topo_par, {0, 3}, ncfg);
  par.set_threads(4);
  EXPECT_EQ(par.threads(), 4u);
  EXPECT_EQ(seq.threads(), 1u);

  const auto step = [&](std::int64_t epoch) {
    env_seq.advance_to(epoch);
    env_par.advance_to(epoch);
    seq.process_epoch(env_seq, epoch);
    par.process_epoch(env_par, epoch);
  };
  const auto churn = [&](auto&& fn) {
    fn(topo_seq, seq);
    fn(topo_par, par);
  };

  std::int64_t epoch = 0;
  for (; epoch < 10; ++epoch) step(epoch);

  // Mid-arm death away from either root: both trees lose the -x arm's
  // tail, and the cached epoch plan must be rebuilt (a stale plan would
  // walk a dead node and throw).
  churn([&](net::Topology& t, DirqNetwork& n) {
    t.kill_node(5);
    n.handle_node_death(5, 10);
  });
  for (; epoch < 20; ++epoch) step(epoch);

  // Addition at the +y arm's tip: fresh protocol instances with one slot
  // per tree, plus counter arrays that must stay aligned across paths.
  churn([&](net::Topology& t, DirqNetwork& n) {
    net::Node newcomer;
    newcomer.x = 0.0;
    newcomer.y = 4.0;
    newcomer.sensors = {kT};
    const NodeId id = t.add_node(newcomer);
    n.handle_node_addition(id, 20);
  });
  for (; epoch < 30; ++epoch) step(epoch);

  expect_networks_identical(seq, par);
}

}  // namespace
}  // namespace dirq::core
