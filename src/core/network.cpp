#include "core/network.hpp"

#include <algorithm>
#include <limits>
#include <span>
#include <stdexcept>
#include <utility>

#include "analysis/cost_model.hpp"
#include "core/gate_scan.hpp"
#include "core/lossy.hpp"
#include "sim/logging.hpp"
#include "sim/thread_pool.hpp"

namespace dirq::core {

namespace {
/// One slot of the own-tuple plane: the (node, type, tree) slot's
/// RangeTable::own() bounds, NaN when it holds no tuple — so the crossing
/// test !(lo <= r && r <= hi) fires exactly when RangeTable::observe
/// re-centres (NaN compares false).
struct OwnTuple {
  double lo;
  double hi;
};

constexpr double kNoTuple = std::numeric_limits<double>::quiet_NaN();

/// Phase-A chunks per pool thread: more, smaller chunks than threads so
/// dynamic claiming absorbs uneven per-chunk cost and host CPU steal.
constexpr std::size_t kChunksPerThread = 4;
}  // namespace

/// The epoch engine's plan (see DirqNetwork::process_epoch).
///
/// Phase B follows `walk`: the alive members of the epoch walk in
/// sampling order (leaves first). Phase A visits the same nodes in id
/// order (`members`), because everything it touches per node — the
/// sampling gate, the controllers, the environment's per-node memo — is
/// id-indexed, so each chunk streams through memory. Chunk c owns
/// members [chunk_off[c], chunk_off[c+1]) with all of their sensor types
/// and tree slots: a chunk never splits a node, whose controllers keep
/// every type in one structure (AtcController's std::map) that
/// on_reading may insert into.
///
/// Per sensor type t, plan slot j is the j-th member carrying t; a
/// chunk's slots of type t form the contiguous range [seg[c], seg[c+1]).
/// Each slot carries its node's walk position, the DirqNode's
/// attached-sensor guard, the sampling gate's next-due epoch (gated runs)
/// and the own-tuple plane entry of every tree slot. The plane is written
/// by phase B's commits and rebuilt from the range tables with the plan;
/// RangeTable stays the source of truth for aggregates, queries and
/// believes_relevant.
struct DirqNetwork::EpochPlan {
  /// A reading that escaped its slot's own tuple in phase A, committed in
  /// phase B at its node's walk position.
  struct Crossing {
    std::uint32_t pos;   // walk position of the node
    TreeId tree;
    SensorType type;
    std::uint32_t slot;  // plan slot j of (node, type)
    double reading;
  };

  struct TypePlan {
    std::vector<NodeId> nodes;           // ascending id
    std::vector<std::uint32_t> pos;      // walk position of nodes[j]
    std::vector<std::size_t> seg;        // chunk c: slots [seg[c], seg[c+1])
    std::vector<std::uint8_t> attached;  // DirqNode carries the type
    std::vector<OwnTuple> own;           // own[j * tree_count + tree]
    std::vector<std::int64_t> next_due;  // gate mirror (gated runs)
    // Per-epoch scratch, reused so the hot loop never allocates. Gated
    // runs compact the due slots into batch/batch_seg; ungated runs read
    // nodes/seg directly. values[i] is the reading of batch node i.
    std::vector<std::uint8_t> due;
    std::vector<NodeId> batch;
    std::vector<std::size_t> batch_seg;
    std::vector<double> values;

    [[nodiscard]] const std::vector<NodeId>& sampled(bool gated) const {
      return gated ? batch : nodes;
    }
    [[nodiscard]] const std::vector<std::size_t>& sampled_seg(
        bool gated) const {
      return gated ? batch_seg : seg;
    }
  };

  /// Phase-A output of one chunk. alignas(64): chunks run on different
  /// threads and push to their own lists.
  struct alignas(64) Chunk {
    std::vector<Crossing> crossings;
  };

  std::uint64_t topo_revision = 0;
  bool gated = false;
  /// ATC controllers. make_controller is the only factory, and
  /// FixedTheta's on_reading and on_epoch are empty, so fixed-threshold
  /// epochs skip both hooks.
  bool adaptive = false;
  std::vector<NodeId> walk;
  std::vector<NodeId> members;               // walk nodes, ascending id
  std::vector<std::uint32_t> sensor_count;   // per member
  std::vector<std::size_t> chunk_off;
  std::vector<TypePlan> types;
  std::vector<Chunk> chunks;
  std::vector<Crossing> crossings;  // all chunks' crossings, walk order
  std::vector<SensorType> active;   // types with a non-empty batch
  const data::ReadingSource* probed = nullptr;  // adoption settled for it
};

std::unique_ptr<ThetaController> make_controller(const NetworkConfig& cfg) {
  if (cfg.mode == NetworkConfig::ThetaMode::Fixed) {
    return std::make_unique<FixedTheta>(cfg.fixed_pct);
  }
  return std::make_unique<AtcController>(cfg.atc);
}

DirqNetwork::DirqNetwork(net::Topology& topo, NodeId root, NetworkConfig cfg)
    : DirqNetwork(topo, std::vector<NodeId>{root}, cfg) {}

DirqNetwork::DirqNetwork(net::Topology& topo, std::vector<NodeId> roots,
                         NetworkConfig cfg)
    : topo_(topo),
      cfg_(cfg),
      trees_(topo, std::move(roots)),
      root_(trees_.root(0)) {
  const std::size_t n_trees = trees_.count();
  nodes_.reserve(topo.size());
  for (const net::Node& n : topo.nodes()) {
    nodes_.emplace_back(n.id,
                        std::vector<SensorType>(n.sensors.begin(), n.sensors.end()),
                        make_controller(cfg_));
    for (TreeId t = 1; t < n_trees; ++t) {
      nodes_.back().add_slot(make_controller(cfg_));
    }
    samplers_.emplace_back(cfg_.sampling);
  }
  node_tx_.assign(topo.size(), 0);
  node_rx_.assign(topo.size(), 0);
  tree_ledgers_.assign(n_trees, CostLedger{});
  instant_ = std::make_unique<InstantTransport>(topo_, *this);
  transport_ = instant_.get();
  prev_parent_.assign(n_trees, std::vector<NodeId>(topo.size(), kNoNode));
  for (NodeId u = 0; u < topo.size(); ++u) {
    nodes_[u].set_position(topo.node(u).x, topo.node(u).y);
    for (TreeId t = 0; t < n_trees; ++t) {
      const net::SpanningTree& tr = trees_.tree(t);
      if (!tr.in_tree(u)) continue;
      nodes_[u].set_parent(t, tr.parent(u));
      const auto ch = tr.children(u);
      nodes_[u].set_children(t, std::vector<NodeId>(ch.begin(), ch.end()));
      prev_parent_[t][u] = tr.parent(u);
    }
  }
  for (DirqNode& n : nodes_) wire_node(n);
  // Bootstrap the static location attribute: leaves-first announcement so
  // subtree bounding boxes aggregate toward each root in a single wave
  // per tree.
  for (TreeId t = 0; t < n_trees; ++t) {
    const std::vector<NodeId>& order = trees_.tree(t).bfs_order();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      nodes_[*it].announce_location(t, 0);
    }
  }
  rebuild_union_walk();
  plan_ = std::make_unique<EpochPlan>();
}

DirqNetwork::~DirqNetwork() = default;

void DirqNetwork::set_threads(unsigned threads) {
  const unsigned n = sim::ThreadPool::resolve(threads);
  if (n == this->threads()) return;
  pool_ = n > 1 ? std::make_unique<sim::ThreadPool>(n) : nullptr;
  plan_dirty_ = true;  // the chunk count follows the pool width
}

unsigned DirqNetwork::threads() const noexcept {
  return pool_ ? pool_->size() : 1;
}

void DirqNetwork::set_loss(LossChannel* loss) { loss_ = loss; }

CostLedger DirqNetwork::costs() const {
  CostLedger sum;
  for (const CostLedger& l : tree_ledgers_) sum += l;
  return sum;
}

void DirqNetwork::book_tx(NodeId from, const Message& msg) {
  ++tree_ledgers_.at(message_tree(msg)).tx(message_kind(msg));
  ++node_tx_.at(from);
}

void DirqNetwork::book_rx(NodeId to, const Message& msg) {
  ++tree_ledgers_.at(message_tree(msg)).rx(message_kind(msg));
  // The radio exists as soon as the topology slot does, so a reception in
  // the Topology::add_node -> handle_node_addition window is booked too.
  if (to >= node_rx_.size()) node_rx_.resize(topo_.size(), 0);
  ++node_rx_[to];
}

void DirqNetwork::wire_node(DirqNode& n) {
  n.set_stale_flag(&plan_dirty_);
  n.set_send([this](NodeId from, NodeId to, const Message& msg) {
    if (std::holds_alternative<UpdateMessage>(msg)) {
      ++updates_transmitted_;
      if (update_hook_) update_hook_(current_epoch_);
    }
    book_tx(from, msg);
    transport_->unicast(from, to, msg);
  });
  n.set_multicast([this](NodeId from, const std::vector<NodeId>& targets,
                         const Message& msg) {
    book_tx(from, msg);  // one transmission regardless of target count
    transport_->multicast(from, targets, msg);
  });
  n.set_broadcast([this](NodeId from, const Message& msg) {
    book_tx(from, msg);
    transport_->broadcast(from, msg);
  });
}

void DirqNetwork::deliver(NodeId to, NodeId from, const Message& msg) {
  // An id beyond the topology itself is a transport contract violation.
  if (to >= topo_.size()) {
    throw std::logic_error("DirqNetwork::deliver: recipient outside topology");
  }
  book_rx(to, msg);
  // CRC loss: the radio has paid its rx — the protocol never sees the
  // frame.
  if (loss_ != nullptr && loss_->next_drop(message_tree(msg), from, to)) {
    return;
  }
  if (to >= nodes_.size()) return;  // heard, but not yet integrated
  if (audit_active_) {
    if (const auto* qm = std::get_if<QueryMessage>(&msg);
        qm != nullptr && qm->q.id == audit_query_) {
      audit_received_.push_back(to);
      if (nodes_[to].believes_relevant(qm->tree, qm->q)) {
        audit_believed_.push_back(to);
      }
    } else if (const auto* mq = std::get_if<MultiQueryMessage>(&msg);
               mq != nullptr && mq->q.id == audit_query_) {
      audit_received_.push_back(to);
      if (nodes_[to].believes_relevant(mq->tree, mq->q)) {
        audit_believed_.push_back(to);
      }
    }
  }
  nodes_[to].handle(msg, from, current_epoch_);
}

const std::vector<NodeId>& DirqNetwork::epoch_walk_order() const {
  return trees_.count() == 1 ? trees_.tree(0).bfs_order() : union_order_;
}

void DirqNetwork::rebuild_union_walk() {
  union_order_.clear();
  if (trees_.count() == 1) return;  // tree 0's cached order is the walk
  // Tree 0's BFS order first — identical prefix to the single-sink walk —
  // then members of the other trees outside tree 0, in their own BFS
  // order. Deterministic, and any order is correct for the cascade (each
  // parent re-checks on every child update).
  std::vector<char> seen(topo_.size(), 0);
  for (TreeId t = 0; t < trees_.count(); ++t) {
    for (NodeId u : trees_.tree(t).bfs_order()) {
      if (seen[u]) continue;
      seen[u] = 1;
      union_order_.push_back(u);
    }
  }
}

void DirqNetwork::process_epoch(const data::ReadingSource& env,
                                std::int64_t epoch) {
  current_epoch_ = epoch;
  const bool rebuilt =
      plan_dirty_ || plan_->topo_revision != topo_.revision();
  if (rebuilt) rebuild_plan();
  EpochPlan& p = *plan_;
  const std::size_t chunks = p.chunks.size();

  // Gate: a branch-light sweep per type over the next_due mirror
  // (gate_scan.hpp: a vectorizable compare pass into `due`, then an
  // unconditional-store compaction per chunk). A slot's next_due only
  // moves through its own on_sample, so the mask branches exactly like
  // SamplingController::should_sample.
  if (p.gated) {
    for (EpochPlan::TypePlan& tp : p.types) {
      const std::size_t n = tp.nodes.size();
      tp.due.resize(n);
      gate_scan_mask(tp.next_due.data(), n, epoch, tp.due.data());
      tp.batch.resize(n);
      std::size_t m = 0;
      for (std::size_t c = 0; c < chunks; ++c) {
        tp.batch_seg[c] = m;
        m += gate_compact(tp.nodes.data(), tp.due.data(), tp.seg[c],
                          tp.seg[c + 1], tp.batch.data() + m);
      }
      tp.batch_seg[chunks] = m;
      tp.batch.resize(m);
    }
  }

  // Readings are pure at a fixed epoch, so where they are fetched cannot
  // change a value. A source that can split one type's batch across
  // threads is read inside phase A, chunk by chunk; any other source is
  // read here, one call per type.
  const bool in_phase_a =
      env.concurrent_type_batches() && env.concurrent_intra_type_chunks();
  fetch_readings(env, in_phase_a);

  // Phase A: node-local sensing, one task per chunk. The first epoch
  // after a rebuild runs it on this thread, so state the controllers
  // create lazily on a node's first reading (ATC's per-type windows) is
  // allocated here rather than in the workers' malloc arenas, which
  // would otherwise raise peak memory for the rest of the run.
  const auto sense = [this, &env, in_phase_a, epoch](std::size_t c) {
    sense_chunk(env, c, in_phase_a, epoch);
  };
  if (pool_ && !rebuilt) {
    pool_->parallel_for(chunks, sense);
  } else {
    for (std::size_t c = 0; c < chunks; ++c) sense(c);
  }

  // Phase B: the walk-order commit.
  commit_epoch(epoch);
}

void DirqNetwork::rebuild_plan() {
  EpochPlan& p = *plan_;
  const std::size_t trees = trees_.count();
  // Leaves first (reversed BFS): the within-epoch update cascade then
  // settles in a single pass on the instant transport. Members killed but
  // not yet repaired (LMAC detects deaths after a timeout) are skipped.
  std::vector<std::uint32_t> pos_of(topo_.size(), 0);
  p.walk.clear();
  const std::vector<NodeId>& order = epoch_walk_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (!topo_.is_alive(*it)) continue;
    pos_of[*it] = static_cast<std::uint32_t>(p.walk.size());
    p.walk.push_back(*it);
  }
  p.members = p.walk;
  std::sort(p.members.begin(), p.members.end());
  const std::size_t w = p.members.size();
  const std::size_t chunks =
      pool_ ? std::clamp<std::size_t>(w, 1, pool_->size() * kChunksPerThread)
            : 1;
  p.chunk_off.resize(chunks + 1);
  for (std::size_t c = 0; c <= chunks; ++c) p.chunk_off[c] = c * w / chunks;

  // Node::sensors is sorted + deduplicated by every Topology entry point,
  // so a (node, type) pair occurs at most once per plan.
  std::size_t type_count = 0;
  for (NodeId u : p.members) {
    for (SensorType t : topo_.node(u).sensors) {
      type_count = std::max<std::size_t>(type_count, t + 1);
    }
  }
  p.gated = cfg_.sampling.enabled;
  p.adaptive = cfg_.mode == NetworkConfig::ThetaMode::Atc;
  p.sensor_count.clear();
  p.types.resize(type_count);
  for (EpochPlan::TypePlan& tp : p.types) {
    tp.nodes.clear();
    tp.pos.clear();
    tp.attached.clear();
    tp.own.clear();
    tp.next_due.clear();
    tp.seg.resize(chunks + 1);
    tp.batch_seg.resize(chunks + 1);
  }
  for (std::size_t c = 0; c < chunks; ++c) {
    for (EpochPlan::TypePlan& tp : p.types) tp.seg[c] = tp.nodes.size();
    for (std::size_t i = p.chunk_off[c]; i < p.chunk_off[c + 1]; ++i) {
      const NodeId u = p.members[i];
      const DirqNode& node = nodes_[u];
      const std::vector<SensorType>& sensors = topo_.node(u).sensors;
      p.sensor_count.push_back(static_cast<std::uint32_t>(sensors.size()));
      for (SensorType t : sensors) {
        EpochPlan::TypePlan& tp = p.types[t];
        tp.nodes.push_back(u);
        tp.pos.push_back(pos_of[u]);
        tp.attached.push_back(std::binary_search(node.sensors().begin(),
                                                 node.sensors().end(), t));
        for (TreeId k = 0; k < trees; ++k) {
          const RangeTable* table = node.table(k, t);
          if (table != nullptr && table->own().has_value()) {
            tp.own.push_back({table->own()->min, table->own()->max});
          } else {
            tp.own.push_back({kNoTuple, kNoTuple});
          }
        }
        if (p.gated) tp.next_due.push_back(samplers_[u].next_due(t));
      }
    }
  }
  for (EpochPlan::TypePlan& tp : p.types) tp.seg[chunks] = tp.nodes.size();
  p.chunks.resize(chunks);
  p.probed = nullptr;
  p.topo_revision = topo_.revision();
  plan_dirty_ = false;
}

void DirqNetwork::fetch_readings(const data::ReadingSource& env,
                                 bool in_phase_a) {
  EpochPlan& p = *plan_;
  p.active.clear();
  for (std::size_t t = 0; t < p.types.size(); ++t) {
    EpochPlan::TypePlan& tp = p.types[t];
    tp.values.resize(tp.sampled(p.gated).size());
    if (!tp.values.empty()) p.active.push_back(static_cast<SensorType>(t));
  }
  if (in_phase_a) {
    // Chunks of one type read concurrently only once the source's lazy
    // node adoption is settled (FastField grows its per-node cache on
    // first sight of a node id): one serial reading of the highest
    // planned node per type does it, and readings are pure, so the probe
    // is unobservable. Post-deployment types beyond the source's range
    // are left to the batch call, which raises.
    if (p.chunks.size() > 1 && p.probed != &env) {
      for (std::size_t t = 0; t < p.types.size() && t < env.type_count();
           ++t) {
        if (p.types[t].nodes.empty()) continue;
        (void)env.reading(p.types[t].nodes.back(), static_cast<SensorType>(t));
      }
      p.probed = &env;
    }
    return;
  }
  const auto fetch = [&env, &p](std::size_t k) {
    const SensorType t = p.active[k];
    EpochPlan::TypePlan& tp = p.types[t];
    env.readings(t, tp.sampled(p.gated), tp.values);
  };
  if (pool_ && env.concurrent_type_batches()) {
    pool_->parallel_for(p.active.size(), fetch);
  } else {
    for (std::size_t k = 0; k < p.active.size(); ++k) fetch(k);
  }
}

void DirqNetwork::sense_chunk(const data::ReadingSource& env, std::size_t c,
                              bool fetch, std::int64_t epoch) {
  EpochPlan& p = *plan_;
  std::vector<EpochPlan::Crossing>& crossings = p.chunks[c].crossings;
  const std::size_t trees = trees_.count();
  crossings.clear();
  // Type-major: a type's slots in this chunk are one sequential scan of
  // the plan arrays. Work on different types of one node commutes — the
  // gate and the controllers keep independent per-type state — and a
  // node's crossings still come out in ascending type, then tree, order:
  // the order sample() visits them.
  for (std::size_t t = 0; t < p.types.size(); ++t) {
    EpochPlan::TypePlan& tp = p.types[t];
    const auto type = static_cast<SensorType>(t);
    const std::vector<std::size_t>& vseg = tp.sampled_seg(p.gated);
    std::size_t v = vseg[c];
    if (fetch && v < vseg[c + 1]) {
      const std::size_t n = vseg[c + 1] - v;
      env.readings(type,
                   std::span<const NodeId>(tp.sampled(p.gated)).subspan(v, n),
                   std::span<double>(tp.values).subspan(v, n));
    }
    for (std::size_t j = tp.seg[c]; j < tp.seg[c + 1]; ++j) {
      const NodeId u = tp.nodes[j];
      if (p.gated) {
        SamplingController& gate = samplers_[u];
        if (!tp.due[j]) {
          gate.on_skip(type);  // predictor confident: save the ADC energy (§8)
          continue;
        }
        // The gate reads tree 0's theta, which moves only in on_epoch and
        // on_ehr — never during an epoch's sensing.
        gate.on_sample(type, tp.values[v], nodes_[u].controller().theta(type),
                       epoch);
        tp.next_due[j] = gate.next_due(type);
      }
      const double reading = tp.values[v++];
      if (!tp.attached[j]) continue;  // DirqNode::sample's sensor guard
      if (p.adaptive) nodes_[u].observe_reading(type, reading);
      const OwnTuple* own = &tp.own[j * trees];
      for (std::size_t k = 0; k < trees; ++k) {
        if (!(reading >= own[k].lo && reading <= own[k].hi)) {
          crossings.push_back({tp.pos[j], static_cast<TreeId>(k), type,
                               static_cast<std::uint32_t>(j), reading});
        }
      }
    }
  }
  if (!p.gated) {
    for (std::size_t i = p.chunk_off[c]; i < p.chunk_off[c + 1]; ++i) {
      samplers_[p.members[i]].count_sample(p.sensor_count[i]);
    }
  }
}

void DirqNetwork::commit_epoch(std::int64_t epoch) {
  EpochPlan& p = *plan_;
  const std::size_t trees = trees_.count();
  // A node's crossings all come from one chunk, already in commit order,
  // so a stable sort by walk position yields the walk's commit sequence.
  p.crossings.clear();
  for (const EpochPlan::Chunk& ch : p.chunks) {
    p.crossings.insert(p.crossings.end(), ch.crossings.begin(),
                       ch.crossings.end());
  }
  std::stable_sort(p.crossings.begin(), p.crossings.end(),
                   [](const EpochPlan::Crossing& a,
                      const EpochPlan::Crossing& b) { return a.pos < b.pos; });
  const auto commit = [&](const EpochPlan::Crossing& x) {
    const RangeEntry own = nodes_[p.walk[x.pos]].commit_reading(
        x.tree, x.type, x.reading, epoch);
    p.types[x.type].own[x.slot * trees + x.tree] = {own.min, own.max};
  };
  if (!p.adaptive) {
    // Fixed theta: only the nodes with crossings are visited.
    for (const EpochPlan::Crossing& x : p.crossings) commit(x);
    return;
  }
  // ATC: every node's end-of-epoch step runs at its walk position, after
  // its own commits and before any later node's. A child later in a
  // multi-sink union walk can still relay through the node afterwards,
  // exactly as in a sequential walk.
  std::size_t i = 0;
  for (std::uint32_t pos = 0; pos < p.walk.size(); ++pos) {
    for (; i < p.crossings.size() && p.crossings[i].pos == pos; ++i) {
      commit(p.crossings[i]);
    }
    nodes_[p.walk[pos]].end_epoch(epoch);
  }
}

double DirqNetwork::mean_theta_pct(SensorType type) const {
  double sum = 0.0;
  std::size_t n = 0;
  for (NodeId u : trees_.tree(0).bfs_order()) {
    if (u == root_ || !topo_.is_alive(u)) continue;
    sum += nodes_[u].controller().theta_pct(type);
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

double DirqNetwork::broadcast_ehr(TreeId tree,
                                  double expected_queries_per_hour,
                                  std::int64_t epoch) {
  current_epoch_ = epoch;
  const net::SpanningTree& tr = trees_.tree(tree);
  const auto nodes = static_cast<std::int64_t>(tr.size());
  if (nodes < 2) return 0.0;
  const auto links = static_cast<std::int64_t>(topo_.link_count());
  EhrMessage msg;
  msg.tree = tree;
  msg.expected_queries_per_hour = expected_queries_per_hour;
  msg.umax_per_hour = analysis::umax_messages_per_hour(
      nodes, links, static_cast<std::int64_t>(tr.internal_node_count()),
      expected_queries_per_hour);
  msg.alive_nodes = static_cast<std::uint32_t>(topo_.alive_count());
  msg.round = ++ehr_round_;
  // The gateway hands the estimate to the tree's root, which floods it.
  nodes_[trees_.root(tree)].handle(Message{msg}, kNoNode, epoch);
  return msg.umax_per_hour;
}

void DirqNetwork::begin_audit(QueryId id, TreeId tree, std::int64_t epoch) {
  if (audit_active_) {
    throw std::logic_error("DirqNetwork: previous query audit still open");
  }
  current_epoch_ = epoch;
  audit_active_ = true;
  audit_query_ = id;
  audit_tree_ = tree;
  audit_received_.clear();
  audit_believed_.clear();
  audit_cost_start_ = costs().query_cost();
}

void DirqNetwork::inject_async(TreeId tree, const query::RangeQuery& q,
                               std::int64_t epoch) {
  begin_audit(q.id, tree, epoch);
  // The gateway delivers the query to the sink's root (no radio cost: the
  // root is wired to the server, paper §3). The root then directs it
  // down its own tree.
  nodes_[trees_.root(tree)].handle(Message{QueryMessage{q, tree}}, kNoNode,
                                   epoch);
}

void DirqNetwork::inject_async(TreeId tree, const query::MultiQuery& q,
                               std::int64_t epoch) {
  begin_audit(q.id, tree, epoch);
  nodes_[trees_.root(tree)].handle(Message{MultiQueryMessage{q, tree}},
                                   kNoNode, epoch);
}

QueryOutcome DirqNetwork::collect_outcome() {
  if (!audit_active_) {
    throw std::logic_error("DirqNetwork: no query audit open");
  }
  QueryOutcome out;
  out.id = audit_query_;
  out.tree = audit_tree_;
  out.received = audit_received_;
  std::sort(out.received.begin(), out.received.end());
  out.received.erase(std::unique(out.received.begin(), out.received.end()),
                     out.received.end());
  out.believed_sources = audit_believed_;
  std::sort(out.believed_sources.begin(), out.believed_sources.end());
  out.believed_sources.erase(
      std::unique(out.believed_sources.begin(), out.believed_sources.end()),
      out.believed_sources.end());
  out.cost = costs().query_cost() - audit_cost_start_;
  audit_active_ = false;
  if (query_done_hook_) query_done_hook_(out);
  return out;
}

QueryOutcome DirqNetwork::inject(TreeId tree, const query::RangeQuery& q,
                                 std::int64_t epoch) {
  inject_async(tree, q, epoch);  // instant transport: completes synchronously
  return collect_outcome();
}

QueryOutcome DirqNetwork::inject(TreeId tree, const query::MultiQuery& q,
                                 std::int64_t epoch) {
  inject_async(tree, q, epoch);
  return collect_outcome();
}

void DirqNetwork::retarget_trees(NodeId changed, std::int64_t epoch) {
  const std::vector<TreeId> rebuilt = trees_.rebuild_affected(topo_, changed);
  plan_dirty_ = true;
  if (nodes_.size() < topo_.size()) {
    // Brand-new node slots appended by Topology::add_node.
    for (NodeId u = static_cast<NodeId>(nodes_.size()); u < topo_.size(); ++u) {
      const net::Node& info = topo_.node(u);
      nodes_.emplace_back(
          u, std::vector<SensorType>(info.sensors.begin(), info.sensors.end()),
          make_controller(cfg_));
      for (TreeId t = 1; t < trees_.count(); ++t) {
        nodes_.back().add_slot(make_controller(cfg_));
      }
      nodes_.back().set_position(info.x, info.y);
      wire_node(nodes_.back());
      samplers_.emplace_back(cfg_.sampling);
      for (std::vector<NodeId>& pp : prev_parent_) pp.push_back(kNoNode);
    }
    // resize, not push_back: book_rx() may already have grown node_rx_ to
    // the topology size inside the add_node → retarget window.
    node_tx_.resize(nodes_.size(), 0);
    node_rx_.resize(nodes_.size(), 0);
  }
  // Revived nodes may have been redeployed at a new position, whichever
  // trees they end up in.
  for (NodeId u = 0; u < nodes_.size(); ++u) {
    if (topo_.is_alive(u)) {
      nodes_[u].set_position(topo_.node(u).x, topo_.node(u).y);
    }
  }

  for (TreeId t : rebuilt) {
    const net::SpanningTree& tr = trees_.tree(t);
    // Pass 1: install the new structure everywhere.
    std::vector<NodeId> new_parent(nodes_.size(), kNoNode);
    for (NodeId u = 0; u < nodes_.size(); ++u) {
      if (tr.in_tree(u)) {
        new_parent[u] = tr.parent(u);
        const auto ch = tr.children(u);
        nodes_[u].set_children(t, std::vector<NodeId>(ch.begin(), ch.end()));
        nodes_[u].set_parent(t, tr.parent(u));
      } else {
        nodes_[u].set_children(t, {});
        nodes_[u].set_parent(t, kNoNode);
      }
    }

    // Pass 2: reconcile tables. A node whose parent changed must (a) be
    // dropped from its old parent's tables and (b) announce its subtree
    // ranges to its new parent.
    for (NodeId u = 0; u < nodes_.size(); ++u) {
      if (new_parent[u] == prev_parent_[t][u]) continue;
      const NodeId old_p = prev_parent_[t][u];
      if (old_p != kNoNode && old_p < nodes_.size() && topo_.is_alive(old_p)) {
        nodes_[old_p].on_child_lost(t, u, epoch);
      }
      if (new_parent[u] != kNoNode && topo_.is_alive(u)) {
        nodes_[u].force_reannounce(t, epoch);
      }
    }
    prev_parent_[t] = std::move(new_parent);
  }
  rebuild_union_walk();
}

void DirqNetwork::handle_node_death(NodeId dead, std::int64_t epoch) {
  current_epoch_ = epoch;
  sim::log(sim::LogLevel::Info, "dirq", "node ", dead, " died; repairing tree");
  retarget_trees(dead, epoch);
}

void DirqNetwork::handle_node_addition(NodeId added, std::int64_t epoch) {
  current_epoch_ = epoch;
  sim::log(sim::LogLevel::Info, "dirq", "node ", added, " joined; repairing tree");
  retarget_trees(added, epoch);
}

void DirqNetwork::handle_sensor_added(NodeId id, SensorType type,
                                      std::int64_t epoch) {
  current_epoch_ = epoch;
  nodes_.at(id).attach_sensor(type);
  // The new sensor announces itself with the node's next sample; nothing
  // to push yet (there is no reading).
}

void DirqNetwork::handle_sensor_removed(NodeId id, SensorType type,
                                        std::int64_t epoch) {
  current_epoch_ = epoch;
  nodes_.at(id).detach_sensor(type, epoch);
}

std::int64_t DirqNetwork::samples_taken() const {
  std::int64_t total = 0;
  for (const SamplingController& s : samplers_) total += s.samples_taken();
  return total;
}

std::int64_t DirqNetwork::samples_skipped() const {
  std::int64_t total = 0;
  for (const SamplingController& s : samplers_) total += s.samples_skipped();
  return total;
}

}  // namespace dirq::core
