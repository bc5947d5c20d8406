#include "core/session.hpp"

#include "data/fast_field.hpp"
#include "net/tree_set.hpp"
#include "sim/counter_rng.hpp"

namespace dirq::core {

namespace {

const ExperimentConfig& validated(const ExperimentConfig& cfg) {
  cfg.validate();
  return cfg;
}

// Sink roots: the explicit list, or spread_roots for a bare count. Both
// keep node 0 — the paper's root — as tree 0 when sink_count is 1, so the
// default deployment is byte-identical to the single-root constructor.
std::vector<NodeId> resolve_roots(const ExperimentConfig& cfg,
                                  const net::Topology& topo) {
  if (!cfg.sinks.empty()) return cfg.sinks;
  if (cfg.sink_count <= 1) return {0};
  return net::spread_roots(topo, cfg.sink_count);
}

}  // namespace

Session::Session(const ExperimentConfig& cfg, double prior_ehr)
    : cfg_(validated(cfg)),
      rng_(cfg_.seed),
      topo_(net::random_connected(cfg_.placement, rng_)),
      // Pinned constructs data::Environment on the "environment" substream
      // (every golden); Fast swaps in the counter-based twin behind the
      // same ReadingSource interface.
      env_(data::make_environment(cfg_.field_backend, topo_,
                                  cfg_.placement.sensor_type_count,
                                  rng_.substream("environment"))),
      roots_(resolve_roots(cfg_, topo_)),
      network_(topo_, roots_, cfg_.network),
      prior_ehr_(prior_ehr) {
  if (cfg_.loss_rate > 0.0) {
    // Every drop verdict is a pure function of (seed, tree, from, to,
    // per-pair delivery counter) on the seed's "loss" substream, so the
    // instant and LMAC transports see the same channel.
    loss_.emplace(cfg_.loss_rate, sim::CounterRng(cfg_.seed).substream("loss"));
    network_.set_loss(&*loss_);
  }
  if (cfg_.transport == TransportKind::Lmac) {
    sched_.emplace();
    mac_.emplace(*sched_, topo_, cfg_.lmac);
    lmac_transport_.emplace(*mac_, network_);
    network_.use_transport(*lmac_transport_);
    // Cross-layer path (§4.2): LMAC's timeout-based death detection drives
    // DirQ's tree repair. LMAC reports a death once per surviving
    // neighbour; the tree is repaired once per dead node.
    lmac_transport_->set_on_neighbor_lost([this](NodeId, NodeId dead) {
      if (mac_repaired_.insert(dead).second) {
        network_.handle_node_death(dead, current_epoch_);
      }
    });
    mac_->start();
  }
  const unsigned threads = Experiment::effective_threads(cfg_);
  if (threads > 1) network_.set_threads(threads);

  const std::size_t n_sinks = network_.tree_count();
  predictors_.reserve(n_sinks);
  for (std::size_t t = 0; t < n_sinks; ++t) {
    predictors_.emplace_back(0.4, cfg_.epochs_per_hour);
  }
  sink_umax_per_hour_.resize(n_sinks);
}

void Session::run(std::int64_t epochs,
                  const std::function<void(std::int64_t epoch)>& on_epoch) {
  for (std::int64_t epoch = 0; epoch < epochs; ++epoch) {
    current_epoch_ = epoch;
    env_->advance_to(epoch);
    if (epoch % cfg_.epochs_per_hour == 0) broadcast_ehr(epoch);
    network_.process_epoch(*env_, epoch);
    on_epoch(epoch);
    drain_mac_until(epoch + 1);
  }
}

void Session::broadcast_ehr(std::int64_t epoch) {
  const std::size_t n_sinks = predictors_.size();
  for (TreeId t = 0; t < static_cast<TreeId>(n_sinks); ++t) {
    // Each sink floods the EHr *it* observed; hour 0 splits the prior
    // evenly (== prior_ehr with one sink).
    const double ehr = predictors_[t].completed_hours() > 0
                           ? predictors_[t].predict_next_hour()
                           : prior_ehr_ / static_cast<double>(n_sinks);
    // The broadcast's return value is the Umax/Hr the root flooded — the
    // single source of truth (analysis::umax_messages_per_hour).
    sink_umax_per_hour_[t].push_back(network_.broadcast_ehr(t, ehr, epoch));
    if (t == 0) ehr_per_hour_.push_back(ehr);
  }
}

void Session::record_query(TreeId tree, std::int64_t epoch) {
  predictors_.at(tree).record_query(epoch);
}

void Session::drain_mac_until(std::int64_t epoch) {
  // Frame `epoch` starts at exactly epoch * frame_ticks.
  if (sched_) sched_->run_until(epoch * cfg_.lmac.frame_ticks() - 1);
}

CostUnits Session::mac_control_units() const {
  if (!mac_) return 0;
  CostUnits sum = 0;
  for (NodeId u = 0; u < topo_.size(); ++u) {
    sum += mac_->control_tx(u) + mac_->control_rx(u);
  }
  return sum;
}

}  // namespace dirq::core
