// InstantTransport delivery semantics; DirqNetwork's booking of the
// paper §5 cost model (one unit per tx, one per rx, one tx per multicast)
// and the message-kind classifier; the metrics audit arithmetic.
#include "core/transport.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "core/network.hpp"
#include "metrics/audit.hpp"

namespace dirq::core {
namespace {

struct Capture final : MessageSink {
  struct Rec {
    NodeId to, from;
    Message msg;
  };
  std::vector<Rec> delivered;
  void deliver(NodeId to, NodeId from, const Message& msg) override {
    delivered.push_back({to, from, msg});
  }
};

constexpr SensorType kT = kSensorTemperature;

/// Chain 0 - 1 - ... - (n-1); every node but 0 (the root) senses kT.
net::Topology line(std::size_t n) {
  std::vector<net::Node> nodes(n);
  for (std::size_t i = 0; i < n; ++i) {
    nodes[i].x = static_cast<double>(i);
    if (i > 0) nodes[i].sensors = {kT};
  }
  return net::Topology(std::move(nodes), 1.1);
}

Message update_msg() { return Message{UpdateMessage{}}; }
Message query_msg() { return Message{QueryMessage{}}; }
Message ehr_msg() { return Message{EhrMessage{}}; }

TEST(InstantTransport, UnicastDeliversToNeighbor) {
  net::Topology t = line(3);
  Capture cap;
  InstantTransport tr(t, cap);
  tr.unicast(0, 1, update_msg());
  ASSERT_EQ(cap.delivered.size(), 1u);
  EXPECT_EQ(cap.delivered[0].to, 1u);
  EXPECT_EQ(cap.delivered[0].from, 0u);
}

TEST(InstantTransport, UnicastToNonNeighborDeliversNothing) {
  net::Topology t = line(4);
  Capture cap;
  InstantTransport tr(t, cap);
  tr.unicast(0, 3, update_msg());
  EXPECT_TRUE(cap.delivered.empty());
}

TEST(InstantTransport, UnicastToDeadNodeIsLost) {
  net::Topology t = line(3);
  t.kill_node(1);
  Capture cap;
  InstantTransport tr(t, cap);
  tr.unicast(0, 1, update_msg());
  EXPECT_TRUE(cap.delivered.empty());
}

TEST(InstantTransport, MulticastReachesEachAddressedNeighbor) {
  // Star: 0 center.
  std::vector<net::Node> nodes(4);
  net::Topology t(nodes, {{0, 1}, {0, 2}, {0, 3}});
  Capture cap;
  InstantTransport tr(t, cap);
  const std::vector<NodeId> targets{1, 3};
  tr.multicast(0, targets, query_msg());
  ASSERT_EQ(cap.delivered.size(), 2u);
  EXPECT_EQ(cap.delivered[0].to, 1u);
  EXPECT_EQ(cap.delivered[1].to, 3u);
}

TEST(InstantTransport, EmptyMulticastDeliversNothing) {
  net::Topology t = line(2);
  Capture cap;
  InstantTransport tr(t, cap);
  tr.multicast(0, {}, query_msg());
  EXPECT_TRUE(cap.delivered.empty());
}

TEST(InstantTransport, MulticastSkipsDeadTargets) {
  std::vector<net::Node> nodes(4);
  net::Topology t(nodes, {{0, 1}, {0, 2}, {0, 3}});
  t.kill_node(2);
  Capture cap;
  InstantTransport tr(t, cap);
  const std::vector<NodeId> targets{1, 2, 3};
  tr.multicast(0, targets, query_msg());
  EXPECT_EQ(cap.delivered.size(), 2u);
}

TEST(InstantTransport, BroadcastReachesAllAliveNeighbors) {
  net::Topology t = line(3);
  Capture cap;
  InstantTransport tr(t, cap);
  tr.broadcast(1, ehr_msg());
  EXPECT_EQ(cap.delivered.size(), 2u);
}

TEST(MessageKind, ClassifiesAllFiveMessageTypes) {
  EXPECT_EQ(message_kind(Message{QueryMessage{}}), MessageKind::Query);
  EXPECT_EQ(message_kind(Message{MultiQueryMessage{}}), MessageKind::Query);
  EXPECT_EQ(message_kind(Message{UpdateMessage{}}), MessageKind::Update);
  EXPECT_EQ(message_kind(Message{EhrMessage{}}), MessageKind::Control);
  EXPECT_EQ(message_kind(Message{LocationAnnounce{}}), MessageKind::Control);
}

// --- DirqNetwork's booking -------------------------------------------------

NetworkConfig fixed_cfg() {
  NetworkConfig cfg;
  cfg.mode = NetworkConfig::ThetaMode::Fixed;
  cfg.fixed_pct = 5.0;
  return cfg;
}

TEST(NetworkBooking, BootstrapWaveBooksOneTxAndRxPerHop) {
  // Each non-root announces its location to its parent once: 3 control tx,
  // 3 control rx, booked against the sender and the recipient.
  net::Topology topo = line(4);
  DirqNetwork net(topo, 0, fixed_cfg());
  const CostLedger c = net.costs();
  EXPECT_EQ(c.control_tx, 3);
  EXPECT_EQ(c.control_rx, 3);
  EXPECT_EQ(c.query_cost() + c.update_cost(), 0);
  EXPECT_EQ(net.node_tx(0), 0);
  EXPECT_EQ(net.node_rx(0), 1);
  EXPECT_EQ(net.node_tx(3), 1);
  EXPECT_EQ(net.node_rx(3), 0);
}

TEST(NetworkBooking, TxToDeadNodeCostsTxOnly) {
  // Node 1 dies without the network being told: node 2's update still
  // pays its transmission, and nobody pays a reception.
  net::Topology topo = line(3);
  DirqNetwork net(topo, 0, fixed_cfg());
  topo.kill_node(1);
  const CostUnits rx1 = net.node_rx(1);
  const CostLedger before = net.costs();
  net.node(2).sample(kT, 25.0, 0);
  const CostLedger after = net.costs();
  EXPECT_EQ(after.update_tx - before.update_tx, 1);
  EXPECT_EQ(after.update_rx, before.update_rx);
  EXPECT_EQ(net.node_rx(1), rx1);
}

TEST(NetworkBooking, TxToOutOfRangeNodeCostsTxOnly) {
  // Node 2 moves out of its parent's range without a tree repair: its
  // update is sent to a node that is no longer a neighbour.
  net::Topology topo = line(3);
  DirqNetwork net(topo, 0, fixed_cfg());
  topo.kill_node(2);
  net::Node moved;
  moved.id = 2;
  moved.x = 10.0;
  moved.sensors = {kT};
  topo.add_node(moved);
  const CostUnits rx1 = net.node_rx(1);
  const CostLedger before = net.costs();
  net.node(2).sample(kT, 25.0, 0);
  EXPECT_EQ(net.costs().update_tx - before.update_tx, 1);
  EXPECT_EQ(net.costs().update_rx, before.update_rx);
  EXPECT_EQ(net.node_rx(1), rx1);
}

TEST(NetworkBooking, MulticastBooksOneTxAndOneRxPerRecipient) {
  // Star: root 0 with three sensing leaves. A query that matches every
  // leaf is one multicast from the root (Eq. 6): 1 tx, 3 rx.
  std::vector<net::Node> nodes(4);
  for (std::size_t i = 1; i < 4; ++i) nodes[i].sensors = {kT};
  net::Topology topo(nodes, {{0, 1}, {0, 2}, {0, 3}});
  DirqNetwork net(topo, 0, fixed_cfg());
  for (NodeId u = 1; u < 4; ++u) net.node(u).sample(kT, 20.0, 0);
  const CostUnits root_tx = net.node_tx(0);
  const QueryOutcome out =
      net.inject(query::RangeQuery{1, kT, 0.0, 100.0, 1}, 1);
  EXPECT_EQ(out.received, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(net.costs().query_tx, 1);
  EXPECT_EQ(net.costs().query_rx, 3);
  EXPECT_EQ(out.cost, 4);
  EXPECT_EQ(net.node_tx(0) - root_tx, 1);
}

TEST(NetworkBooking, LedgerSeparatesKinds) {
  // One message of each kind over the chain: updates up, a query and a
  // conjunctive query down, an EHr flood out.
  net::Topology topo = line(3);
  DirqNetwork net(topo, 0, fixed_cfg());
  const CostLedger boot = net.costs();  // location announces: control
  net.node(1).sample(kT, 20.0, 0);      // 1 update hop
  EXPECT_EQ(net.costs().update_tx, 1);
  EXPECT_EQ(net.costs().update_rx, 1);
  (void)net.inject(query::RangeQuery{1, kT, 19.0, 21.0, 1}, 1);
  EXPECT_EQ(net.costs().query_tx, 1);
  EXPECT_EQ(net.costs().query_rx, 1);
  query::MultiQuery mq;
  mq.id = 2;
  mq.predicates = {query::AttributePredicate{kT, 19.0, 21.0}};
  (void)net.inject(mq, 1);
  EXPECT_EQ(net.costs().query_tx, 2);
  EXPECT_EQ(net.costs().query_rx, 2);
  net.broadcast_ehr(100.0, 1);  // every node re-floods once
  EXPECT_EQ(net.costs().control_tx - boot.control_tx, 3);
  EXPECT_EQ(net.costs().control_rx - boot.control_rx, 4);
  EXPECT_EQ(net.costs().update_cost(), 2);
  EXPECT_EQ(net.costs().query_cost(), 4);
}

}  // namespace
}  // namespace dirq::core

namespace dirq::metrics {
namespace {

TEST(Audit, DisjointSets) {
  const std::vector<NodeId> should{1, 2, 3};
  const std::vector<NodeId> received{4, 5};
  const QueryAudit a = audit_query(should, received);
  EXPECT_EQ(a.correct, 0u);
  EXPECT_EQ(a.wrong, 2u);
  EXPECT_EQ(a.missed, 3u);
  EXPECT_NEAR(a.overshoot_pct(), 200.0 / 3.0, 1e-9);
  EXPECT_DOUBLE_EQ(a.coverage_pct(), 0.0);
}

TEST(Audit, PerfectDelivery) {
  const std::vector<NodeId> nodes{1, 2, 3, 4};
  const QueryAudit a = audit_query(nodes, nodes);
  EXPECT_EQ(a.wrong, 0u);
  EXPECT_EQ(a.missed, 0u);
  EXPECT_DOUBLE_EQ(a.overshoot_pct(), 0.0);
  EXPECT_DOUBLE_EQ(a.reach_ratio_pct(), 100.0);
  EXPECT_DOUBLE_EQ(a.coverage_pct(), 100.0);
}

TEST(Audit, OvershootCounting) {
  const std::vector<NodeId> should{1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const std::vector<NodeId> received{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  const QueryAudit a = audit_query(should, received);
  EXPECT_EQ(a.wrong, 1u);
  EXPECT_DOUBLE_EQ(a.overshoot_pct(), 10.0);
  EXPECT_DOUBLE_EQ(a.reach_ratio_pct(), 110.0);
}

TEST(Audit, EmptyShouldSet) {
  const std::vector<NodeId> received{1};
  const QueryAudit a = audit_query({}, received);
  EXPECT_DOUBLE_EQ(a.overshoot_pct(), 0.0);
  EXPECT_DOUBLE_EQ(a.coverage_pct(), 100.0);
  EXPECT_EQ(a.wrong, 1u);
}

TEST(Audit, EmptyBothIsClean) {
  const QueryAudit a = audit_query({}, {});
  EXPECT_DOUBLE_EQ(a.overshoot_pct(), 0.0);
  EXPECT_DOUBLE_EQ(a.reach_ratio_pct(), 100.0);
}

TEST(Audit, PartialOverlap) {
  const std::vector<NodeId> should{2, 4, 6, 8};
  const std::vector<NodeId> received{4, 5, 8, 9};
  const QueryAudit a = audit_query(should, received);
  EXPECT_EQ(a.correct, 2u);
  EXPECT_EQ(a.wrong, 2u);
  EXPECT_EQ(a.missed, 2u);
  EXPECT_DOUBLE_EQ(a.coverage_pct(), 50.0);
}

}  // namespace
}  // namespace dirq::metrics
