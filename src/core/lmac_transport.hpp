// LMAC-backed transport: DirQ over the real (simulated) TDMA MAC.
//
// Messages ride slot-synchronously in the sender's data section; deaths
// are discovered by LMAC's control-message timeout and surface as
// cross-layer callbacks, which this adapter forwards to a user-supplied
// handler (typically DirqNetwork::handle_node_death via the integration
// harness). This is the paper's §4.2 cross-layer path.
//
// Cost note: DirqNetwork books the DirQ messages this transport carries in
// the data section, like on any transport; LMAC's own control traffic is
// accounted inside LmacNetwork and is the MAC's standing cost, present for
// flooding and DirQ alike.
#pragma once

#include <functional>

#include "core/transport.hpp"
#include "mac/lmac.hpp"

namespace dirq::core {

class LmacTransport final : public Transport, public mac::LinkObserver {
 public:
  /// The LmacNetwork must be started by the caller; this adapter installs
  /// itself as the MAC's observer.
  LmacTransport(mac::LmacNetwork& mac, MessageSink& sink);

  // --- Transport ------------------------------------------------------------
  void unicast(NodeId from, NodeId to, const Message& msg) override;
  void multicast(NodeId from, std::span<const NodeId> targets,
                 const Message& msg) override;
  void broadcast(NodeId from, const Message& msg) override;

  /// A ledger nothing reads. Kept only because perfbench/src/workloads.cpp
  /// still assigns the network's costs here when it installs this
  /// transport; remove together with that line.
  [[nodiscard]] CostLedger& mutable_costs() noexcept { return unread_; }

  // --- cross-layer notifications ---------------------------------------------
  using NeighborHandler = std::function<void(NodeId self, NodeId neighbor)>;
  void set_on_neighbor_lost(NeighborHandler h) { on_lost_ = std::move(h); }
  void set_on_neighbor_found(NeighborHandler h) { on_found_ = std::move(h); }

  // --- mac::LinkObserver -------------------------------------------------------
  void on_message(NodeId self, const mac::Frame& frame) override;
  void on_neighbor_lost(NodeId self, NodeId neighbor) override;
  void on_neighbor_found(NodeId self, NodeId neighbor) override;

 private:
  struct Addressed {  // multicast payload: explicit target set
    std::vector<NodeId> targets;
    Message msg;
  };

  mac::LmacNetwork& mac_;
  MessageSink& sink_;
  CostLedger unread_;
  NeighborHandler on_lost_;
  NeighborHandler on_found_;
};

}  // namespace dirq::core
