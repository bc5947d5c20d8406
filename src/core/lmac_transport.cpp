#include "core/lmac_transport.hpp"

#include <algorithm>

namespace dirq::core {

LmacTransport::LmacTransport(mac::LmacNetwork& mac, MessageSink& sink)
    : mac_(mac), sink_(sink) {
  mac_.set_observer(this);
}

void LmacTransport::charge_tx(const Message& msg) {
  if (std::holds_alternative<QueryMessage>(msg) ||
      std::holds_alternative<MultiQueryMessage>(msg)) {
    ledger_.query_tx += 1;
  } else if (std::holds_alternative<UpdateMessage>(msg)) {
    ledger_.update_tx += 1;
  } else {
    ledger_.control_tx += 1;
  }
}

void LmacTransport::charge_rx(const Message& msg) {
  if (std::holds_alternative<QueryMessage>(msg) ||
      std::holds_alternative<MultiQueryMessage>(msg)) {
    ledger_.query_rx += 1;
  } else if (std::holds_alternative<UpdateMessage>(msg)) {
    ledger_.update_rx += 1;
  } else {
    ledger_.control_rx += 1;
  }
}

void LmacTransport::unicast(NodeId from, NodeId to, const Message& msg) {
  charge_tx(msg);
  mac_.send(from, to, msg);
}

void LmacTransport::multicast(NodeId from, std::span<const NodeId> targets,
                              const Message& msg) {
  if (targets.empty()) return;
  charge_tx(msg);
  // One transmission; the target set rides in the payload (as in LMAC's
  // data section addressing). Delivered via link broadcast; non-addressed
  // hearers discard without charging reception (they sleep through the
  // data section). Callers pass targets in arbitrary (tree) order;
  // on_message looks them up with binary_search, so sort here.
  Addressed a{std::vector<NodeId>(targets.begin(), targets.end()), msg};
  std::sort(a.targets.begin(), a.targets.end());
  mac_.broadcast(from, std::move(a));
}

void LmacTransport::broadcast(NodeId from, const Message& msg) {
  charge_tx(msg);
  mac_.broadcast(from, msg);
}

void LmacTransport::on_message(NodeId self, const mac::Frame& frame) {
  if (const auto* addressed = std::any_cast<Addressed>(&frame.payload)) {
    if (!std::binary_search(addressed->targets.begin(),
                            addressed->targets.end(), self)) {
      return;  // data section not addressed to us
    }
    charge_rx(addressed->msg);
    sink_.deliver(self, frame.src, addressed->msg);
    return;
  }
  if (const auto* msg = std::any_cast<Message>(&frame.payload)) {
    charge_rx(*msg);
    sink_.deliver(self, frame.src, *msg);
  }
}

void LmacTransport::on_neighbor_lost(NodeId self, NodeId neighbor) {
  if (on_lost_) on_lost_(self, neighbor);
}

void LmacTransport::on_neighbor_found(NodeId self, NodeId neighbor) {
  if (on_found_) on_found_(self, neighbor);
}

}  // namespace dirq::core
