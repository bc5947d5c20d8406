// DirQ protocol messages.
//
// Three message kinds cross the tree (paper §4):
//   UpdateMessage — child -> parent; new aggregate (min(THmin), max(THmax))
//                   for one sensor type, or a retraction when the subtree
//                   no longer carries the type (§4.2).
//   QueryMessage  — parent -> child; a range query being directed down the
//                   tree toward relevant nodes.
//   EhrMessage    — root -> everyone, hourly; the expected query count for
//                   the next hour plus the derived network-wide update
//                   budget Umax/Hr that parameterises ATC (§6, Fig. 6).
//
// Every message carries the TreeId of the spanning tree it belongs to:
// the multi-sink query plane runs N trees over one topology, and a node's
// per-tree protocol slots dispatch on this tag. Single-sink deployments
// leave it at the default 0, so the wire format (and every golden) is
// unchanged for the paper's configuration.
//
// The paper's §5 cost model lives here too: message_kind classifies a
// message into the CostLedger category its radio events are booked under.
#pragma once

#include <cstdint>
#include <variant>

#include "query/query.hpp"
#include "sim/types.hpp"

namespace dirq::core {

struct UpdateMessage {
  NodeId from = kNoNode;
  TreeId tree = 0;
  SensorType type = 0;
  double min = 0.0;
  double max = 0.0;
  /// False = retraction: the sender's subtree no longer has this type.
  bool has_range = true;
};

struct QueryMessage {
  query::RangeQuery q;
  TreeId tree = 0;
};

/// Conjunctive multi-attribute query in flight (paper §2 capability).
struct MultiQueryMessage {
  query::MultiQuery q;
  TreeId tree = 0;
};

/// Static-attribute announcement: the sender's subtree bounding box
/// (paper §2's optional location attribute). Sent once at bootstrap and on
/// churn; parents fold child boxes into their own subtree box.
struct LocationAnnounce {
  NodeId from = kNoNode;
  TreeId tree = 0;
  net::BBox box;
};

struct EhrMessage {
  TreeId tree = 0;
  double expected_queries_per_hour = 0.0;  // EHr
  double umax_per_hour = 0.0;              // fMax(k,d) * EHr (DESIGN.md §1.7)
  std::uint32_t alive_nodes = 0;           // for fair per-node budget shares
  std::int64_t round = 0;                  // flood round (duplicate suppression)
};

using Message = std::variant<UpdateMessage, QueryMessage, MultiQueryMessage,
                             EhrMessage, LocationAnnounce>;

/// The spanning tree a message belongs to: DirqNetwork books each of its
/// radio events into this tree's ledger, and a node's per-tree slot
/// dispatch keys on it.
inline TreeId message_tree(const Message& msg) noexcept {
  return std::visit([](const auto& m) { return m.tree; }, msg);
}

/// The paper §5 cost category of a message: both query forms are query
/// traffic, updates are update traffic, and EHr floods and location
/// announcements are control traffic. The one classifier every booking
/// goes through.
enum class MessageKind : std::uint8_t { Query, Update, Control };

inline MessageKind message_kind(const Message& msg) noexcept {
  if (std::holds_alternative<QueryMessage>(msg) ||
      std::holds_alternative<MultiQueryMessage>(msg)) {
    return MessageKind::Query;
  }
  if (std::holds_alternative<UpdateMessage>(msg)) return MessageKind::Update;
  return MessageKind::Control;
}

/// Per-kind energy ledger (1 unit per transmit, 1 per receive; paper §5).
struct CostLedger {
  CostUnits query_tx = 0, query_rx = 0;
  CostUnits update_tx = 0, update_rx = 0;
  CostUnits control_tx = 0, control_rx = 0;  // EHr floods, location announces

  [[nodiscard]] CostUnits query_cost() const noexcept { return query_tx + query_rx; }
  [[nodiscard]] CostUnits update_cost() const noexcept { return update_tx + update_rx; }
  [[nodiscard]] CostUnits control_cost() const noexcept { return control_tx + control_rx; }
  [[nodiscard]] CostUnits total() const noexcept {
    return query_cost() + update_cost() + control_cost();
  }

  /// The cell one transmission / reception of a `kind` message books into.
  [[nodiscard]] CostUnits& tx(MessageKind kind) noexcept {
    return kind == MessageKind::Query    ? query_tx
           : kind == MessageKind::Update ? update_tx
                                         : control_tx;
  }
  [[nodiscard]] CostUnits& rx(MessageKind kind) noexcept {
    return kind == MessageKind::Query    ? query_rx
           : kind == MessageKind::Update ? update_rx
                                         : control_rx;
  }

  CostLedger& operator+=(const CostLedger& o) noexcept {
    query_tx += o.query_tx;
    query_rx += o.query_rx;
    update_tx += o.update_tx;
    update_rx += o.update_rx;
    control_tx += o.control_tx;
    control_rx += o.control_rx;
    return *this;
  }
};

}  // namespace dirq::core
