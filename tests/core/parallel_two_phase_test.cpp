// The two-phase epoch engine (DirqNetwork::process_epoch): phase A senses
// node-locally in parallel chunks and only records own-tuple crossings;
// phase B commits them sequentially at each node's walk position, then runs
// the update cascade. These tests pin the ordering contract phase B must
// keep, show that epochs inside an open query audit take the same engine,
// and run a seeded randomized differential of N threads against 1 (and,
// ungated, against a plain DirqNode::sample walk) across sink counts,
// threshold modes, sampling, loss, transports and churn.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/lmac_transport.hpp"
#include "core/lossy.hpp"
#include "core/network.hpp"
#include "data/fast_field.hpp"
#include "data/field_model.hpp"
#include "mac/lmac.hpp"
#include "net/placement.hpp"
#include "net/topology.hpp"
#include "net/tree_set.hpp"
#include "sim/counter_rng.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "support/ledger_parity.hpp"

namespace dirq::core {
namespace {

constexpr SensorType kT = kSensorTemperature;

/// Readings scripted per (epoch, node); pure, so it may claim both
/// concurrency flags and exercise the in-phase-A fetch path too.
class ScriptedSource final : public data::ReadingSource {
 public:
  ScriptedSource(std::map<std::pair<std::int64_t, NodeId>, double> values,
                 bool concurrent)
      : values_(std::move(values)), concurrent_(concurrent) {}

  void advance_to(std::int64_t epoch) override { epoch_ = epoch; }
  [[nodiscard]] double reading(NodeId node, SensorType) const override {
    return values_.at({epoch_, node});
  }
  [[nodiscard]] bool concurrent_type_batches() const noexcept override {
    return concurrent_;
  }
  [[nodiscard]] bool concurrent_intra_type_chunks() const noexcept override {
    return concurrent_;
  }
  [[nodiscard]] std::size_t type_count() const override { return 1; }
  [[nodiscard]] std::int64_t epoch() const override { return epoch_; }

 private:
  std::map<std::pair<std::int64_t, NodeId>, double> values_;
  bool concurrent_;
  std::int64_t epoch_ = 0;
};

/// Instant transport that records every Update Message it carries.
class RecordingTransport final : public Transport {
 public:
  RecordingTransport(const net::Topology& topo, MessageSink& sink)
      : inner_(topo, sink) {}

  void unicast(NodeId from, NodeId to, const Message& msg) override {
    if (const auto* u = std::get_if<UpdateMessage>(&msg)) log.push_back(*u);
    inner_.unicast(from, to, msg);
  }
  void multicast(NodeId from, std::span<const NodeId> targets,
                 const Message& msg) override {
    inner_.multicast(from, targets, msg);
  }
  void broadcast(NodeId from, const Message& msg) override {
    inner_.broadcast(from, msg);
  }

  std::vector<UpdateMessage> log;

 private:
  InstantTransport inner_;
};

/// Chain 0 - 1 - 2 rooted at 0; nodes 1 and 2 sense kT.
net::Topology chain3() {
  std::vector<net::Node> nodes(3);
  for (std::size_t i = 0; i < 3; ++i) {
    nodes[i].x = static_cast<double>(i);
    if (i > 0) nodes[i].sensors = {kT};
  }
  return net::Topology(std::move(nodes), 1.1);
}

TEST(ParallelTwoPhase, ChildTriggeredUpdateCarriesParentsOldOwnTuple) {
  // theta = 5 % of kT's 22-unit span = 1.1. Both nodes cross in both
  // epochs. The walk is leaves first, so node 2 commits before node 1:
  // its update makes node 1 relay while node 1 still holds its OLD own
  // tuple, and only then does node 1's own crossing re-centre the tuple
  // and send again.
  const std::map<std::pair<std::int64_t, NodeId>, double> script = {
      {{0, 0}, 0.0}, {{0, 1}, 20.0}, {{0, 2}, 30.0},
      {{1, 0}, 0.0}, {{1, 1}, 40.0}, {{1, 2}, 50.0}};
  for (const bool concurrent : {false, true}) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(testing::Message() << "threads " << threads
                                      << " concurrent " << concurrent);
      net::Topology topo = chain3();
      NetworkConfig cfg;
      cfg.mode = NetworkConfig::ThetaMode::Fixed;
      cfg.fixed_pct = 5.0;
      DirqNetwork net(topo, 0, cfg);
      net.set_threads(threads);
      RecordingTransport rec(topo, net);
      net.use_transport(rec);
      ScriptedSource env(script, concurrent);

      env.advance_to(0);
      net.process_epoch(env, 0);
      ASSERT_EQ(rec.log.size(), 3u);
      // Node 2's first tuple; node 1 relays it before it has one of its own.
      EXPECT_EQ(rec.log[0].from, 2u);
      EXPECT_DOUBLE_EQ(rec.log[0].min, 28.9);
      EXPECT_DOUBLE_EQ(rec.log[0].max, 31.1);
      EXPECT_EQ(rec.log[1].from, 1u);
      EXPECT_DOUBLE_EQ(rec.log[1].min, 28.9);
      EXPECT_DOUBLE_EQ(rec.log[1].max, 31.1);
      // Node 1's own crossing widens the aggregate down to its tuple.
      EXPECT_EQ(rec.log[2].from, 1u);
      EXPECT_DOUBLE_EQ(rec.log[2].min, 18.9);
      EXPECT_DOUBLE_EQ(rec.log[2].max, 31.1);

      rec.log.clear();
      env.advance_to(1);
      net.process_epoch(env, 1);
      ASSERT_EQ(rec.log.size(), 3u);
      EXPECT_EQ(rec.log[0].from, 2u);
      EXPECT_DOUBLE_EQ(rec.log[0].min, 48.9);
      EXPECT_DOUBLE_EQ(rec.log[0].max, 51.1);
      // The child-triggered update aggregates node 1's old own tuple
      // [18.9, 21.1] — a commit in phase A would have sent 38.9 here.
      EXPECT_EQ(rec.log[1].from, 1u);
      EXPECT_DOUBLE_EQ(rec.log[1].min, 18.9);
      EXPECT_DOUBLE_EQ(rec.log[1].max, 51.1);
      // Then node 1's own crossing sends the new tuple's bound.
      EXPECT_EQ(rec.log[2].from, 1u);
      EXPECT_DOUBLE_EQ(rec.log[2].min, 38.9);
      EXPECT_DOUBLE_EQ(rec.log[2].max, 51.1);

      const RangeTable* t1 = net.node(1).table(kT);
      ASSERT_NE(t1, nullptr);
      ASSERT_TRUE(t1->own().has_value());
      EXPECT_DOUBLE_EQ(t1->own()->min, 38.9);
      EXPECT_DOUBLE_EQ(t1->own()->max, 41.1);
    }
  }
}

TEST(ParallelTwoPhase, DirectSampleBetweenEpochsReachesThePlane) {
  // A DirqNode::sample call outside the engine re-centres node 1's tuple
  // to [23.9, 26.1]. Epoch 1's reading 20.5 lies inside the tuple the
  // plane last mirrored ([18.9, 21.1]) but outside the real one, so the
  // engine only commits it if the node flagged its plan stale.
  const std::map<std::pair<std::int64_t, NodeId>, double> script = {
      {{0, 0}, 0.0}, {{0, 1}, 20.0}, {{0, 2}, 30.0},
      {{1, 0}, 0.0}, {{1, 1}, 20.5}, {{1, 2}, 30.0}};
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    net::Topology topo = chain3();
    NetworkConfig cfg;
    cfg.mode = NetworkConfig::ThetaMode::Fixed;
    cfg.fixed_pct = 5.0;
    DirqNetwork net(topo, 0, cfg);
    net.set_threads(threads);
    ScriptedSource env(script, true);

    env.advance_to(0);
    net.process_epoch(env, 0);
    net.node(1).sample(kT, 25.0, 0);
    env.advance_to(1);
    net.process_epoch(env, 1);

    const RangeTable* t1 = net.node(1).table(kT);
    ASSERT_NE(t1, nullptr);
    ASSERT_TRUE(t1->own().has_value());
    EXPECT_NEAR(t1->own()->min, 19.4, 1e-9);
    EXPECT_NEAR(t1->own()->max, 21.6, 1e-9);
  }
}

/// Forwards to a real environment and counts batch calls.
class CountingSource final : public data::ReadingSource {
 public:
  explicit CountingSource(const data::ReadingSource& inner) : inner_(inner) {}

  void advance_to(std::int64_t) override {}
  [[nodiscard]] double reading(NodeId node, SensorType type) const override {
    return inner_.reading(node, type);
  }
  void readings(SensorType type, std::span<const NodeId> nodes,
                std::span<double> out) const override {
    calls_.fetch_add(1, std::memory_order_relaxed);
    inner_.readings(type, nodes, out);
  }
  [[nodiscard]] bool concurrent_type_batches() const noexcept override {
    return inner_.concurrent_type_batches();
  }
  [[nodiscard]] bool concurrent_intra_type_chunks() const noexcept override {
    return inner_.concurrent_intra_type_chunks();
  }
  [[nodiscard]] std::size_t type_count() const override {
    return inner_.type_count();
  }
  [[nodiscard]] std::int64_t epoch() const override { return inner_.epoch(); }
  [[nodiscard]] std::int64_t calls() const noexcept { return calls_.load(); }

 private:
  const data::ReadingSource& inner_;
  mutable std::atomic<std::int64_t> calls_{0};
};

struct AuditedRun {
  std::string digest;
  std::int64_t audited_epoch_calls = 0;  // readings calls inside audits
};

AuditedRun audited_run(unsigned threads) {
  sim::Rng rng(77);
  net::Topology topo =
      net::random_connected(net::scaled_placement(120), rng);
  NetworkConfig cfg;
  cfg.mode = NetworkConfig::ThetaMode::Fixed;
  cfg.fixed_pct = 3.0;
  DirqNetwork net(topo, 0, cfg);
  net.set_threads(threads);
  data::FastEnvironment env(topo, 4, rng.substream("environment"));
  CountingSource src(env);
  AuditedRun out;
  std::ostringstream d;
  QueryId id = 0;
  for (std::int64_t e = 0; e < 200; ++e) {
    env.advance_to(e);
    const bool audited = e % 10 == 5;
    if (audited) {
      // The instant transport completes the dissemination synchronously,
      // but the audit stays open across the epoch until collected.
      const double r = env.reading(1, kT);
      net.inject_async(query::RangeQuery{++id, kT, r - 1.0, r + 1.0, e}, e);
    }
    const std::int64_t before = src.calls();
    net.process_epoch(src, e);
    if (audited) {
      out.audited_epoch_calls += src.calls() - before;
      const QueryOutcome o = net.collect_outcome();
      d << "q" << o.id << " cost " << o.cost << " recv";
      for (NodeId u : o.received) d << ' ' << u;
      d << " believed";
      for (NodeId u : o.believed_sources) d << ' ' << u;
      d << '\n';
    }
  }
  const CostLedger c = net.costs();
  d << c.query_tx << ' ' << c.query_rx << ' ' << c.update_tx << ' '
    << c.update_rx << ' ' << c.control_tx << ' ' << c.control_rx << ' '
    << net.updates_transmitted() << ' ' << net.samples_taken() << '\n';
  for (NodeId u = 0; u < net.size(); ++u) {
    d << net.node_tx(u) << '/' << net.node_rx(u) << ' ';
  }
  out.digest = d.str();
  return out;
}

TEST(ParallelTwoPhase, AuditedInstantEpochsRunTheEngineAndMatchOneThread) {
  const AuditedRun seq = audited_run(1);
  for (const unsigned threads : {2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "threads " << threads);
    const AuditedRun par = audited_run(threads);
    EXPECT_EQ(par.digest, seq.digest);
    // The fast field splits a type's batch across phase-A chunks: more
    // readings calls than the one-call-per-type inline run means the
    // audited epochs ran on the pool rather than a sequential fallback.
    EXPECT_GT(par.audited_epoch_calls, seq.audited_epoch_calls);
  }
}

/// One randomized differential case.
struct Case {
  std::uint64_t seed = 0;
  std::size_t nodes = 0;
  std::size_t sinks = 1;
  bool atc = false;
  bool sampling = false;
  double loss = 0.0;
  bool lmac = false;
  bool fast = true;
  bool churn = false;
  unsigned threads = 2;
};

std::ostream& operator<<(std::ostream& os, const Case& c) {
  return os << "seed " << c.seed << " nodes " << c.nodes << " sinks "
            << c.sinks << (c.atc ? " atc" : " fixed")
            << (c.sampling ? " sampling" : "") << " loss " << c.loss
            << (c.lmac ? " lmac" : " instant")
            << (c.fast ? " fast" : " pinned") << (c.churn ? " churn" : "")
            << " threads " << c.threads;
}

void digest_tables(std::ostringstream& d, const DirqNetwork& net) {
  for (NodeId u = 0; u < net.size(); ++u) {
    const DirqNode& n = net.node(u);
    for (TreeId k = 0; k < net.tree_count(); ++k) {
      for (SensorType t = 0; t < 4; ++t) {
        const RangeTable* rt = n.table(k, t);
        if (rt == nullptr) continue;
        d << u << ':' << k << ':' << t;
        if (rt->own()) d << " own " << rt->own()->min << ' ' << rt->own()->max;
        if (const RangeAggregate a = rt->aggregate()) {
          d << " agg " << a->min << ' ' << a->max;
        }
        d << '\n';
      }
    }
    d << "theta " << n.controller().theta(kT) << '\n';
  }
}

/// The epoch as the paper defines it, with no engine: every alive member
/// of the union walk (tree 0's BFS order, then other trees' extra
/// members), leaves first, samples each sensor through DirqNode::sample
/// and then runs its end-of-epoch step. Ungated fixed-threshold runs only:
/// the sampling gate lives inside the network, and ATC books relayed
/// updates at the network's clock, which only process_epoch advances.
void reference_epoch(DirqNetwork& net, const net::Topology& topo,
                     const data::ReadingSource& env, std::int64_t epoch) {
  std::vector<NodeId> order;
  std::vector<char> seen(topo.size(), 0);
  for (TreeId k = 0; k < net.tree_count(); ++k) {
    for (NodeId u : net.tree(k).bfs_order()) {
      if (seen[u]) continue;
      seen[u] = 1;
      order.push_back(u);
    }
  }
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (!topo.is_alive(*it)) continue;
    DirqNode& node = net.node(*it);
    for (SensorType t : topo.node(*it).sensors) {
      node.sample(t, env.reading(*it, t), epoch);
    }
    node.end_epoch(epoch);
  }
}

/// A run's observable state; `samples` is kept apart because the
/// reference walk bypasses the sampling gate's counters.
struct Digest {
  std::string state;
  std::string samples;
};

Digest run_case(const Case& c, unsigned threads, bool reference = false) {
  constexpr std::int64_t kEpochs = 120;
  sim::Rng rng(c.seed);
  net::Topology topo =
      net::random_connected(net::scaled_placement(c.nodes), rng);
  const std::vector<NodeId> roots =
      c.sinks == 1 ? std::vector<NodeId>{0} : net::spread_roots(topo, c.sinks);
  NetworkConfig ncfg;
  ncfg.mode = c.atc ? NetworkConfig::ThetaMode::Atc
                    : NetworkConfig::ThetaMode::Fixed;
  ncfg.atc.adjust_period = 10;
  ncfg.atc.rate_window_epochs = 60;
  ncfg.sampling.enabled = c.sampling;
  DirqNetwork net(topo, roots, ncfg);

  std::optional<LossChannel> loss;
  if (c.loss > 0.0) {
    loss.emplace(c.loss, sim::CounterRng(c.seed).substream("loss"));
    net.set_loss(&*loss);
  }
  mac::LmacConfig lcfg;
  lcfg.slots_per_frame = 64;
  lcfg.ticks_per_slot = 16;
  std::optional<sim::Scheduler> sched;
  std::optional<mac::LmacNetwork> mac;
  std::optional<LmacTransport> lmac;
  std::set<NodeId> repaired;
  std::int64_t epoch = 0;
  if (c.lmac) {
    sched.emplace();
    mac.emplace(*sched, topo, lcfg);
    lmac.emplace(*mac, net);
    net.use_transport(*lmac);
    lmac->set_on_neighbor_lost([&](NodeId, NodeId dead) {
      if (repaired.insert(dead).second) net.handle_node_death(dead, epoch);
    });
    mac->start();
  }
  net.set_threads(threads);
  const std::unique_ptr<data::ReadingSource> env = data::make_environment(
      c.fast ? data::EnvironmentBackend::Fast
             : data::EnvironmentBackend::Pinned,
      topo, 4, rng.substream("environment"));

  std::ostringstream d;
  d.precision(17);
  const auto record = [&d](const QueryOutcome& o) {
    d << "q" << o.id << " t" << o.tree << " cost " << o.cost << " recv";
    for (NodeId u : o.received) d << ' ' << u;
    d << " believed";
    for (NodeId u : o.believed_sources) d << ' ' << u;
    d << '\n';
  };
  bool pending = false;
  QueryId id = 0;
  NodeId victim = kNoNode;
  for (; epoch < kEpochs; ++epoch) {
    env->advance_to(epoch);
    if (epoch % 40 == 0) {
      for (TreeId k = 0; k < net.tree_count(); ++k) {
        d << "umax " << net.broadcast_ehr(k, 30.0, epoch) << '\n';
      }
    }
    if (reference) {
      reference_epoch(net, topo, *env, epoch);
    } else {
      net.process_epoch(*env, epoch);
    }
    if (c.churn && epoch == 40) {
      for (NodeId u = 1 + static_cast<NodeId>(c.seed % 7); u < topo.size();
           ++u) {
        if (std::find(roots.begin(), roots.end(), u) == roots.end()) {
          victim = u;
          break;
        }
      }
      topo.kill_node(victim);
      // The instant transport repairs at once; on LMAC the MAC's timeout
      // reports the death a few frames later (epochs run with a dead
      // member still in the walk meanwhile).
      if (!c.lmac) net.handle_node_death(victim, epoch);
    }
    if (c.churn && epoch == 80) {
      net::Node fresh;
      fresh.x = topo.node(victim).x + 0.5;
      fresh.y = topo.node(victim).y;
      fresh.sensors = {kT, kSensorLight};
      net.handle_node_addition(topo.add_node(fresh), epoch);
    }
    if (epoch % 10 == 5) {
      const TreeId tree = static_cast<TreeId>(id % net.tree_count());
      const SensorType t = static_cast<SensorType>(id % 2 == 0 ? kT : 1);
      const double r = env->reading(1, t);
      const query::RangeQuery q{++id, t, r - 1.5, r + 1.5, epoch};
      if (c.lmac) {
        if (pending) record(net.collect_outcome());
        net.inject_async(tree, q, epoch);
        pending = true;
      } else {
        record(net.inject(tree, q, epoch));
      }
    }
    if (c.lmac) sched->run_until((epoch + 1) * lcfg.frame_ticks() - 1);
  }
  if (pending) record(net.collect_outcome());
  // Every radio event is booked once into one tree ledger and one node,
  // so the views reconcile on every transport, loss rate and churn.
  expect_network_ledger_reconciles(net);

  const CostLedger cost = net.costs();
  d << cost.query_tx << ' ' << cost.query_rx << ' ' << cost.update_tx << ' '
    << cost.update_rx << ' ' << cost.control_tx << ' ' << cost.control_rx
    << '\n';
  for (TreeId k = 0; k < net.tree_count(); ++k) {
    d << "tree " << k << ' ' << net.tree_ledger(k).total() << '\n';
  }
  d << net.updates_transmitted() << '\n';
  if (loss) d << loss->offered() << ' ' << loss->dropped() << '\n';
  for (NodeId u = 0; u < net.size(); ++u) {
    d << net.node_tx(u) << '/' << net.node_rx(u) << ' ';
  }
  d << '\n';
  digest_tables(d, net);
  return {d.str(), std::to_string(net.samples_taken()) + ' ' +
                       std::to_string(net.samples_skipped())};
}

TEST(ParallelTwoPhase, RandomizedDifferentialMatchesOneThreadAndPlainWalk) {
  sim::Rng rng(20261017);
  const auto coin = [&rng] { return rng.uniform(0.0, 1.0) < 0.5; };
  for (int i = 0; i < 40; ++i) {
    Case c;
    c.seed = 1000 + static_cast<std::uint64_t>(i);
    c.nodes = 10 + static_cast<std::size_t>(rng.uniform(0.0, 190.0));
    c.sinks = 1 + static_cast<std::size_t>(rng.uniform(0.0, 3.0));
    c.atc = coin();
    c.sampling = coin();
    c.loss = coin() ? 0.2 : 0.0;
    c.lmac = coin();
    c.fast = coin();
    c.churn = coin();
    c.threads = coin() ? 2u : 4u;
    SCOPED_TRACE(testing::Message() << c);
    const Digest seq = run_case(c, 1);
    const Digest par = run_case(c, c.threads);
    EXPECT_EQ(par.state, seq.state);
    EXPECT_EQ(par.samples, seq.samples);
    // The engine at any thread count is also the paper's plain walk.
    if (!c.sampling && !c.atc) {
      EXPECT_EQ(run_case(c, 1, true).state, seq.state);
    }
  }
}

#if defined(__GLIBCXX__)
TEST(ParallelTwoPhase, AtcMultiSinkMatchesSequentialWalkFingerprints) {
  // FNV-1a fingerprints of run_case's state digest, captured from the
  // sequential per-node walk the two-phase engine replaced (sample every
  // sensor, then end_epoch, node by node). With several sinks a node's
  // tree-k children can follow it in the walk and relay through it after
  // its end-of-epoch step, so ATC's adjustments pin where phase B runs
  // that step; the N-vs-1 differential above cannot see its position.
  // Exact doubles are formatted into the digest, so the values are
  // libstdc++-specific, like the scenario goldens.
  const std::pair<std::uint64_t, std::uint64_t> pinned[] = {
      {77, 0x32e9306bd5cde330ULL}, {78, 0xb6d23eb8423f05ddULL}};
  for (const auto& [seed, fingerprint] : pinned) {
    Case c;
    c.seed = seed;
    c.nodes = 150;
    c.sinks = 3;
    c.atc = true;
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(testing::Message() << c << " run at " << threads);
      EXPECT_EQ(sim::fnv1a(run_case(c, threads).state), fingerprint);
    }
  }
}
#endif  // defined(__GLIBCXX__)

}  // namespace
}  // namespace dirq::core
