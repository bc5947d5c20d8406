// Failure injection: a counter-keyed lossy-channel model that drops
// deliveries with a configurable probability, simulating CRC-failed
// receptions on a noisy wireless channel.
//
// Semantics deliberately match radio reality: the *transmitter* always
// pays its cost, and the receiver's radio also spends the reception energy
// (rx is charged before the drop decision) — the frame simply never
// reaches the protocol. Used by robustness tests to show DirQ keeps
// functioning (stale ranges heal on the next threshold crossing; queries
// lose coverage gracefully, never crash) and by users who want a quick
// sensitivity estimate before a real-channel study.
//
// Order independence: each drop verdict is a pure function of the
// delivery's identity — (tree, from, to, per-key delivery sequence
// number) hashed through sim::counter_hash on a dedicated "loss"
// substream — never of how many unrelated deliveries happened before it.
// Reordering deliveries across distinct (tree, from, to) keys cannot
// change a single verdict (tests/core/lossy_order_test.cpp).
#pragma once

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "core/messages.hpp"
#include "core/transport.hpp"
#include "sim/counter_rng.hpp"

namespace dirq::core {

/// The channel model: pure per-delivery verdicts, the per-key sequence
/// counters that advance them, and the offered/dropped totals.
class LossChannel {
 public:
  LossChannel(double drop_probability, sim::CounterRng rng)
      : drop_(drop_probability), rng_(rng) {}

  /// Pure verdict for the seq-th delivery on (tree, from, to). O(1),
  /// order-independent by construction.
  [[nodiscard]] bool drops(TreeId tree, NodeId from, NodeId to,
                           std::uint64_t seq) const noexcept {
    std::uint64_t s = sim::counter_hash(rng_.stream(),
                                        static_cast<std::uint64_t>(tree) + 1);
    s = sim::counter_hash(s, static_cast<std::uint64_t>(from) + 1);
    s = sim::counter_hash(s, static_cast<std::uint64_t>(to) + 1);
    const double u =
        static_cast<double>(sim::counter_hash(s, seq) >> 11) * 0x1.0p-53;
    return u < drop_;
  }

  /// Stateful form: advances the (tree, from, to) sequence counter and
  /// returns that delivery's verdict. Does NOT touch the offered/dropped
  /// totals; callers pair it with note().
  [[nodiscard]] bool next_drop(TreeId tree, NodeId from, NodeId to) {
    if (static_cast<std::size_t>(tree) >= counters_.size()) {
      counters_.resize(static_cast<std::size_t>(tree) + 1);
    }
    auto& plane = counters_[static_cast<std::size_t>(tree)];
    if (static_cast<std::size_t>(from) >= plane.size()) {
      plane.resize(static_cast<std::size_t>(from) + 1);
    }
    auto& cell = plane[static_cast<std::size_t>(from)];
    for (auto& [peer, next_seq] : cell) {
      if (peer == to) return drops(tree, from, to, next_seq++);
    }
    cell.emplace_back(to, 1);
    return drops(tree, from, to, 0);
  }

  /// Books one delivery into the totals.
  void note(bool dropped) noexcept {
    ++offered_;
    if (dropped) ++dropped_;
  }

  [[nodiscard]] std::int64_t offered() const noexcept { return offered_; }
  [[nodiscard]] std::int64_t dropped() const noexcept { return dropped_; }
  [[nodiscard]] double drop_probability() const noexcept { return drop_; }

 private:
  double drop_;
  sim::CounterRng rng_;  // the "loss" substream of the experiment seed
  /// counters_[tree][from]: small (to, next-seq) association — a sender
  /// talks to a handful of tree neighbours, so linear scan beats a map.
  std::vector<std::vector<std::vector<std::pair<NodeId, std::uint64_t>>>>
      counters_;
  std::int64_t offered_ = 0;
  std::int64_t dropped_ = 0;
};

/// MessageSink decorator over a LossChannel — the composition surface for
/// tests and custom transport stacks. (DirqNetwork consumes a LossChannel
/// directly via set_loss, so drops are decided inside its deliver().)
class LossySink final : public MessageSink {
 public:
  /// Invoked for every dropped frame. The transport has already charged
  /// the ledger's rx for it; DirqNetwork users hook this to
  /// note_dropped_rx so the per-node energy distribution stays
  /// consistent with the ledger.
  using DropHook = std::function<void(NodeId to, NodeId from, const Message& msg)>;

  /// Drops each delivery independently with `drop_probability`; `rng`
  /// names the channel's counter stream (conventionally the experiment
  /// seed's "loss" substream).
  LossySink(MessageSink& inner, double drop_probability, sim::CounterRng rng)
      : inner_(inner), channel_(drop_probability, rng) {}

  void set_drop_hook(DropHook hook) { on_drop_ = std::move(hook); }

  void deliver(NodeId to, NodeId from, const Message& msg) override {
    const bool dropped = channel_.next_drop(message_tree(msg), from, to);
    channel_.note(dropped);
    if (dropped) {
      if (on_drop_) on_drop_(to, from, msg);
      return;
    }
    inner_.deliver(to, from, msg);
  }

  [[nodiscard]] std::int64_t offered() const noexcept {
    return channel_.offered();
  }
  [[nodiscard]] std::int64_t dropped() const noexcept {
    return channel_.dropped();
  }
  [[nodiscard]] double drop_probability() const noexcept {
    return channel_.drop_probability();
  }
  [[nodiscard]] const LossChannel& channel() const noexcept { return channel_; }

 private:
  MessageSink& inner_;
  LossChannel channel_;
  DropHook on_drop_;
};

}  // namespace dirq::core
