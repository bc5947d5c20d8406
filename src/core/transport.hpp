// Transport abstraction under the DirQ protocol logic.
//
// DirQ's node logic is transport-agnostic: it emits unicasts (to its tree
// parent or children) and link-layer broadcasts (the hourly EHr estimate),
// and consumes delivered messages. A transport only decides which
// neighbours a transmission reaches and when; it books no energy.
// DirqNetwork books one unit per transmission as it hands a message to the
// transport and one per reception as the transport delivers it (paper §5).
// Two implementations exist:
//
//   InstantTransport — synchronous delivery on the topology graph. This is
//     the fast path used by the 20 000-epoch figure sweeps; it preserves
//     the paper's cost model exactly while skipping MAC latency.
//
//   LmacTransport (lmac_transport.hpp) — rides the src/mac LMAC instance
//     over the event scheduler: slot-synchronous delivery, real timeout-
//     based neighbour-death detection. Used by integration tests and the
//     topology-churn example.
#pragma once

#include <span>

#include "core/messages.hpp"
#include "net/topology.hpp"
#include "sim/types.hpp"

namespace dirq::core {

/// Receives messages from a transport. Implemented by DirqNetwork.
class MessageSink {
 public:
  virtual ~MessageSink() = default;
  virtual void deliver(NodeId to, NodeId from, const Message& msg) = 0;
};

class Transport {
 public:
  virtual ~Transport() = default;

  /// Sends to a one-hop neighbour. Sending to a dead/out-of-range node
  /// delivers nothing.
  virtual void unicast(NodeId from, NodeId to, const Message& msg) = 0;

  /// One transmission addressed to a subset of neighbours; each addressed
  /// alive neighbour receives it. This is the paper's Eq. (6) shape: a
  /// forwarding node pays a single transmission no matter how many
  /// children it targets.
  virtual void multicast(NodeId from, std::span<const NodeId> targets,
                         const Message& msg) = 0;

  /// Link-layer broadcast to all alive one-hop neighbours.
  virtual void broadcast(NodeId from, const Message& msg) = 0;
};

/// Synchronous delivery over the topology graph.
class InstantTransport final : public Transport {
 public:
  InstantTransport(const net::Topology& topo, MessageSink& sink)
      : topo_(topo), sink_(sink) {}

  void unicast(NodeId from, NodeId to, const Message& msg) override;
  void multicast(NodeId from, std::span<const NodeId> targets,
                 const Message& msg) override;
  void broadcast(NodeId from, const Message& msg) override;

 private:
  const net::Topology& topo_;
  MessageSink& sink_;
};

}  // namespace dirq::core
