// DirqNetwork: the whole-network DirQ instance.
//
// Owns one DirqNode per topology node, wires them to a transport, runs the
// epoch loop (sampling -> update propagation), injects queries at a sink
// root and audits which nodes the dissemination reaches, floods the hourly
// EHr estimate, and repairs the communication trees on node
// death/addition (paper §4.2).
//
// Multi-sink query plane: the network owns a net::TreeSet — N BFS
// spanning trees over the one shared topology, one per sink. Every node
// runs one protocol slot per tree (core/dirq_node.hpp); messages carry
// their TreeId. The single-root constructor builds a one-tree set, and
// every TreeId-less entry point addresses tree 0, so the paper's
// single-sink deployment is byte-identical to the pre-refactor code.
//
// Energy (paper §5): the network is the only code that books it, on every
// transport. Each transmission is booked once as a node hands it to the
// transport, each reception once as the transport delivers it; a booking
// writes one cell of its message's tree ledger and one per-node counter.
// The global ledger is the sum of the tree ledgers, so every view
// reconciles by construction.
//
// The per-query audit records the exact set of nodes the query message was
// delivered to — this is the "nodes that RECEIVE a query" series of
// Fig. 5, compared by the metrics layer against the ground-truth
// involvement from query::compute_involvement.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/dirq_node.hpp"
#include "core/messages.hpp"
#include "core/sampling.hpp"
#include "core/transport.hpp"
#include "data/field_model.hpp"
#include "net/tree_set.hpp"
#include "net/topology.hpp"
#include "query/query.hpp"
#include "sim/types.hpp"

namespace dirq::sim {
class ThreadPool;
}  // namespace dirq::sim

namespace dirq::core {

/// Result of injecting one query.
struct QueryOutcome {
  QueryId id = 0;
  TreeId tree = 0;                       // sink tree it was injected into
  std::vector<NodeId> received;          // nodes the query was delivered to
  std::vector<NodeId> believed_sources;  // received && own tuple overlaps
  CostUnits cost = 0;                    // tx+rx spent on this dissemination
};

struct NetworkConfig {
  enum class ThetaMode { Fixed, Atc };
  ThetaMode mode = ThetaMode::Fixed;
  double fixed_pct = 5.0;  // theta as % of each type's nominal span
  AtcConfig atc;
  /// Optional sampling suppression (paper §8 future work); off by default
  /// to match the paper's evaluated configuration.
  SamplingConfig sampling;
};

class LossChannel;  // counter-keyed CRC-loss model (core/lossy.hpp)

class DirqNetwork final : public MessageSink {
 public:
  /// Builds the node set and one BFS communication tree rooted at `root`
  /// (the paper's deployment). The topology must outlive the network.
  DirqNetwork(net::Topology& topo, NodeId root, NetworkConfig cfg);

  /// Multi-sink form: one BFS tree per root over the shared topology.
  /// Root validity (non-empty, unique, in-topology, alive) is enforced by
  /// the TreeSet constructor.
  DirqNetwork(net::Topology& topo, std::vector<NodeId> roots,
              NetworkConfig cfg);
  ~DirqNetwork() override;

  DirqNetwork(const DirqNetwork&) = delete;
  DirqNetwork& operator=(const DirqNetwork&) = delete;

  // --- wiring ---------------------------------------------------------------

  /// Default transport: the built-in InstantTransport. Replaceable (the
  /// LMAC transport installs itself here) at any time: the ledgers live in
  /// the network, so swapping transports never resets a cost. The
  /// transport must outlive the network's use of it.
  void use_transport(Transport& t) { transport_ = &t; }

  /// The global ledger since construction: the component-wise sum of the
  /// tree ledgers.
  [[nodiscard]] CostLedger costs() const;

  /// Installs (or clears, with nullptr) the lossy-channel model: every
  /// delivery — any transport — rolls a counter-keyed drop verdict after
  /// its rx has been booked, and dropped frames never reach the protocol.
  /// The channel must outlive the network's use of it.
  void set_loss(LossChannel* loss);
  [[nodiscard]] const LossChannel* loss() const noexcept { return loss_; }

  /// The sink's share of the global ledger: every tx is booked against the
  /// tree its message belongs to at send time, every rx at delivery (or
  /// CRC-drop) time.
  [[nodiscard]] const CostLedger& tree_ledger(TreeId t) const {
    return tree_ledgers_.at(t);
  }

  [[nodiscard]] const net::TreeSet& trees() const noexcept { return trees_; }
  [[nodiscard]] std::size_t tree_count() const noexcept {
    return trees_.count();
  }
  [[nodiscard]] const net::SpanningTree& tree() const noexcept {
    return trees_.tree(0);
  }
  [[nodiscard]] const net::SpanningTree& tree(TreeId t) const {
    return trees_.tree(t);
  }
  [[nodiscard]] NodeId root() const noexcept { return root_; }
  [[nodiscard]] NodeId root(TreeId t) const { return trees_.root(t); }
  [[nodiscard]] DirqNode& node(NodeId id) { return nodes_.at(id); }
  [[nodiscard]] const DirqNode& node(NodeId id) const { return nodes_.at(id); }
  [[nodiscard]] std::size_t size() const noexcept { return nodes_.size(); }

  // --- protocol operation ----------------------------------------------------

  /// One sensing epoch: every alive member of the epoch walk samples each
  /// of its sensors; threshold crossings emit Update Messages that
  /// propagate toward each tree's root (instant transport:
  /// synchronously). The walk is tree 0's cached BFS order, leaves first
  /// (extended by members of other trees outside it), so the per-node
  /// evaluation order — and therefore every message, golden, and ledger
  /// entry — is unchanged for one sink. Each physical sample is observed
  /// by every tree slot, so N sinks never multiply the sensing energy.
  ///
  /// One two-phase engine runs every epoch, at every thread count, on
  /// every transport and sink count:
  ///
  ///   * Phase A (node-local, parallel over chunks of whole nodes): the
  ///     sampling gate, the readings (one ReadingSource::readings call
  ///     per sensor type per chunk, or per type for sources that cannot
  ///     split a type), the controllers' on_reading, the own-tuple test
  ///     against a dense plane that mirrors every slot's
  ///     RangeTable::own(), and each node's end-of-epoch controller step
  ///     when it commutes with the rest of the epoch
  ///     (ThetaController::epoch_step_commutes). It only records which
  ///     readings escape their slot's tuple (paper Fig. 1).
  ///   * Phase B (sequential, walk order): each recorded crossing is
  ///     committed at its node's walk position — after the updates of
  ///     children earlier in the walk, which must still aggregate the old
  ///     own tuple — followed by the update cascade and every send,
  ///     delivery and loss verdict exactly as a sequential walk makes
  ///     them, then any end-of-epoch step phase A left to the walk (ATC
  ///     adjustments). Nodes with neither are not visited.
  void process_epoch(const data::ReadingSource& env, std::int64_t epoch);

  /// Worker count for phase A of process_epoch (1, the default, runs it
  /// inline; 0 means all hardware threads). Phase B is sequential at
  /// every count, so every output is byte-identical to 1 thread by
  /// construction.
  void set_threads(unsigned threads);
  [[nodiscard]] unsigned threads() const noexcept;

  /// Hourly sink broadcast (paper §4): EHr plus the derived network-wide
  /// update budget Umax/Hr = fMax(graph) * EHr, flooded from the tree's
  /// root to every node (per-tree flood round, per-slot duplicate
  /// suppression). Returns the Umax/Hr value carried by the flooded
  /// message (0 when the tree has fewer than two members and nothing is
  /// flooded) — the single source the driver records, so the Fig. 6
  /// series can never drift from what the network disseminated.
  double broadcast_ehr(double expected_queries_per_hour, std::int64_t epoch) {
    return broadcast_ehr(0, expected_queries_per_hour, epoch);
  }
  double broadcast_ehr(TreeId tree, double expected_queries_per_hour,
                       std::int64_t epoch);

  /// Injects a query at a sink's root and returns the audited outcome.
  /// With the instant transport the dissemination completes synchronously;
  /// with an event-driven transport use inject_async + collect_outcome
  /// instead. The TreeId-less forms inject at tree 0 (the paper's sink).
  QueryOutcome inject(const query::RangeQuery& q, std::int64_t epoch) {
    return inject(0, q, epoch);
  }
  QueryOutcome inject(const query::MultiQuery& q, std::int64_t epoch) {
    return inject(0, q, epoch);
  }
  QueryOutcome inject(TreeId tree, const query::RangeQuery& q,
                      std::int64_t epoch);
  QueryOutcome inject(TreeId tree, const query::MultiQuery& q,
                      std::int64_t epoch);

  /// Starts an asynchronous dissemination (event-driven transports). The
  /// audit keeps accumulating until collect_outcome is called.
  void inject_async(const query::RangeQuery& q, std::int64_t epoch) {
    inject_async(0, q, epoch);
  }
  void inject_async(const query::MultiQuery& q, std::int64_t epoch) {
    inject_async(0, q, epoch);
  }
  void inject_async(TreeId tree, const query::RangeQuery& q,
                    std::int64_t epoch);
  void inject_async(TreeId tree, const query::MultiQuery& q,
                    std::int64_t epoch);

  /// Finishes the audit started by the last inject_async.
  QueryOutcome collect_outcome();

  // --- topology dynamics (paper §4.2) -----------------------------------------

  /// Call after Topology::kill_node: repairs every affected tree, drops
  /// the dead child's tuples (triggering upward updates), re-announces
  /// re-parented subtrees. Trees the change provably cannot touch keep
  /// their cached structure (net::TreeSet::rebuild_affected).
  void handle_node_death(NodeId dead, std::int64_t epoch);

  /// Call after Topology::add_node: attaches the newcomer to the affected
  /// trees and integrates any re-parented neighbours.
  void handle_node_addition(NodeId added, std::int64_t epoch);

  /// Post-deployment sensor change on a node (propagates up, §4.2).
  void handle_sensor_added(NodeId id, SensorType type, std::int64_t epoch);
  void handle_sensor_removed(NodeId id, SensorType type, std::int64_t epoch);

  // --- statistics ---------------------------------------------------------------

  /// Total Update Message transmissions network-wide (origins + relays,
  /// all trees).
  [[nodiscard]] std::int64_t updates_transmitted() const noexcept {
    return updates_transmitted_;
  }

  /// Physical sensor samples taken / suppressed network-wide (paper §8
  /// sampling suppression; skipped == 0 when the feature is disabled).
  [[nodiscard]] std::int64_t samples_taken() const;
  [[nodiscard]] std::int64_t samples_skipped() const;

  /// Mean threshold (as % of the type's nominal span) over alive non-root
  /// members of tree 0 — the ATC trajectory series (kept a tree-0 series:
  /// the paper's figure tracks the primary sink's tree). Centralises the
  /// alive filter: dead nodes never contribute, matching the tree's
  /// cached (alive-only) BFS order.
  [[nodiscard]] double mean_theta_pct(SensorType type) const;

  /// The per-node sampling gate (tests and diagnostics).
  [[nodiscard]] const SamplingController& sampler(NodeId id) const {
    return samplers_.at(id);
  }

  /// Per-node radio energy (tx + rx units attributed to each node, booked
  /// with the ledgers, so they sum to costs()). The network's lifetime is
  /// governed by its hottest node, so the *distribution* matters as much
  /// as the total (bench/energy_hotspots).
  [[nodiscard]] CostUnits node_tx(NodeId id) const { return node_tx_.at(id); }
  [[nodiscard]] CostUnits node_rx(NodeId id) const { return node_rx_.at(id); }
  [[nodiscard]] CostUnits node_energy(NodeId id) const {
    return node_tx_.at(id) + node_rx_.at(id);
  }

  /// Hook invoked once per Update Message transmission with the epoch —
  /// the driver records the Fig. 6 time series through this.
  using UpdateHook = std::function<void(std::int64_t epoch)>;
  void set_update_hook(UpdateHook hook) { update_hook_ = std::move(hook); }

  /// Hook invoked with the audited outcome every time a query audit
  /// closes (collect_outcome — which the synchronous inject() forms call
  /// too). The serve front-end learns answer completion through this
  /// instead of polling the audit state; batch drivers that consume the
  /// inject() return value directly can leave it unset.
  using QueryDoneHook = std::function<void(const QueryOutcome&)>;
  void set_query_done_hook(QueryDoneHook hook) {
    query_done_hook_ = std::move(hook);
  }

  // --- MessageSink -----------------------------------------------------------------

  void deliver(NodeId to, NodeId from, const Message& msg) override;

 private:
  struct EpochPlan;

  void wire_node(DirqNode& n);
  void begin_audit(QueryId id, TreeId tree, std::int64_t epoch);
  /// Re-runs BFS on every tree `changed` could have touched and
  /// reconciles those trees' parent/children pointers, removing stale
  /// child tuples and re-announcing moved subtrees.
  void retarget_trees(NodeId changed, std::int64_t epoch);
  /// The sequential epoch walk: tree 0's cached BFS order for one sink,
  /// the cached union walk (tree 0 + members of other trees outside it)
  /// otherwise.
  [[nodiscard]] const std::vector<NodeId>& epoch_walk_order() const;
  void rebuild_union_walk();
  /// The one energy-booking path: a transmission by `from`, a reception by
  /// `to`. Each writes one tree-ledger cell and one per-node counter.
  void book_tx(NodeId from, const Message& msg);
  void book_rx(NodeId to, const Message& msg);
  [[nodiscard]] std::int64_t internal_node_count() const;

  // The epoch engine (network.cpp): plan and own-tuple plane, phase A on
  // one chunk of the walk, phase B over the recorded crossings.
  void rebuild_plan();
  void fetch_readings(const data::ReadingSource& env, bool in_phase_a);
  void sense_chunk(const data::ReadingSource& env, std::size_t chunk,
                   bool fetch, std::int64_t epoch);
  void commit_epoch(std::int64_t epoch);

  net::Topology& topo_;
  NetworkConfig cfg_;
  net::TreeSet trees_;
  NodeId root_;  // trees_.root(0), cached for the hot paths
  std::vector<DirqNode> nodes_;
  std::vector<SamplingController> samplers_;  // one per node
  std::vector<CostUnits> node_tx_, node_rx_;  // per-node radio energy
  /// prev_parent_[tree][node]: snapshot for churn reconciliation.
  std::vector<std::vector<NodeId>> prev_parent_;
  std::vector<CostLedger> tree_ledgers_;  // one per tree (tree_ledger())
  std::vector<NodeId> union_order_;  // multi-tree epoch walk (empty for 1)

  std::unique_ptr<InstantTransport> instant_;
  Transport* transport_ = nullptr;
  LossChannel* loss_ = nullptr;  // CRC-loss model, nullptr when lossless

  /// The epoch engine's cached walk plan and own-tuple plane, rebuilt
  /// when plan_dirty_ is set (tree repair, a new pool width, or a node
  /// whose own tuples or sensors changed outside the engine — see
  /// DirqNode::set_stale_flag) or the topology's revision moved.
  std::unique_ptr<EpochPlan> plan_;
  bool plan_dirty_ = true;
  /// Present iff set_threads(> 1): runs phase A's chunks.
  std::unique_ptr<sim::ThreadPool> pool_;

  std::int64_t current_epoch_ = 0;
  std::int64_t updates_transmitted_ = 0;
  UpdateHook update_hook_;
  QueryDoneHook query_done_hook_;

  // Per-query audit state.
  bool audit_active_ = false;
  QueryId audit_query_ = 0;
  TreeId audit_tree_ = 0;
  CostUnits audit_cost_start_ = 0;
  std::vector<NodeId> audit_received_;
  std::vector<NodeId> audit_believed_;

  std::int64_t ehr_round_ = 0;
};

std::unique_ptr<ThetaController> make_controller(const NetworkConfig& cfg);

}  // namespace dirq::core
