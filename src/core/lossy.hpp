// Failure injection: a counter-keyed lossy-channel model that drops
// deliveries with a configurable probability, simulating CRC-failed
// receptions on a noisy wireless channel. DirqNetwork::set_loss installs
// it; DirqNetwork::deliver asks it for every delivery's verdict.
//
// Semantics deliberately match radio reality: the *transmitter* always
// pays its cost, and the receiver's radio also spends the reception energy
// (deliver books the rx before asking for the verdict) — the frame simply
// never reaches the protocol. Used by robustness tests to show DirQ keeps
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
#include <utility>
#include <vector>

#include "sim/counter_rng.hpp"
#include "sim/types.hpp"

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

  /// Stateful form: advances the (tree, from, to) sequence counter,
  /// books the delivery into the offered/dropped totals and returns its
  /// verdict.
  [[nodiscard]] bool next_drop(TreeId tree, NodeId from, NodeId to) {
    const bool dropped = drops(tree, from, to, next_seq(tree, from, to));
    ++offered_;
    if (dropped) ++dropped_;
    return dropped;
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

  /// Returns the (tree, from, to) key's next sequence number and advances it.
  std::uint64_t next_seq(TreeId tree, NodeId from, NodeId to) {
    if (static_cast<std::size_t>(tree) >= counters_.size()) {
      counters_.resize(static_cast<std::size_t>(tree) + 1);
    }
    auto& plane = counters_[static_cast<std::size_t>(tree)];
    if (static_cast<std::size_t>(from) >= plane.size()) {
      plane.resize(static_cast<std::size_t>(from) + 1);
    }
    auto& cell = plane[static_cast<std::size_t>(from)];
    for (auto& [peer, seq] : cell) {
      if (peer == to) return seq++;
    }
    cell.emplace_back(to, 1);
    return 0;
  }
};

}  // namespace dirq::core
