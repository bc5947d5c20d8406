// core::Session: the world build and epoch clock that core::Experiment
// (batch) and serve::Server share.
//
// The constructor validates the config and derives the world from its
// seed: topology, environment ("environment" substream), sink roots and
// the DirqNetwork, whose bootstrap announce wave runs lossless and
// instant. It then installs the LossChannel ("loss" counter substream)
// when loss_rate > 0, the LMAC scheduler, MAC and transport with the §4.2
// hook (one handle_node_death per node the MAC reports lost), and the
// thread count.
//
// run() drives the clock. Each epoch: the environment advances; on an hour
// boundary every sink floods its EHr (the prior split evenly until its
// QueryRatePredictor has a completed hour, the prediction after);
// process_epoch; the caller's work; on LMAC, the epoch's frame drains up to
// the next frame's first slot. Callers report injections via record_query.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "core/lmac_transport.hpp"
#include "core/lossy.hpp"
#include "core/network.hpp"
#include "data/reading_source.hpp"
#include "mac/lmac.hpp"
#include "net/topology.hpp"
#include "query/rate_predictor.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"

namespace dirq::core {

class Session {
 public:
  /// Throws std::invalid_argument naming a bad field. `prior_ehr`: the
  /// hour-0 estimate of queries per hour over the whole network.
  Session(const ExperimentConfig& cfg, double prior_ehr);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// Runs epochs [0, epochs); `on_epoch` is the caller's per-epoch work.
  void run(std::int64_t epochs,
           const std::function<void(std::int64_t epoch)>& on_epoch);

  /// Counts one query injected at `tree`'s sink toward its next EHr.
  void record_query(TreeId tree, std::int64_t epoch);

  /// LMAC: delivers every slot before frame `epoch` begins. Instant: no-op.
  void drain_mac_until(std::int64_t epoch);

  /// LMAC control-section tx + rx so far, all nodes; 0 on instant.
  [[nodiscard]] CostUnits mac_control_units() const;

  /// A named substream of the master seed (e.g. "workload").
  [[nodiscard]] sim::Rng substream(std::string_view label) const {
    return rng_.substream(label);
  }

  [[nodiscard]] net::Topology& topology() noexcept { return topo_; }
  [[nodiscard]] data::ReadingSource& environment() noexcept { return *env_; }
  [[nodiscard]] DirqNetwork& network() noexcept { return network_; }
  [[nodiscard]] const std::vector<NodeId>& roots() const noexcept {
    return roots_;
  }

  /// The Umax/Hr each sink's EHr flood returned, one entry per hour.
  [[nodiscard]] const std::vector<std::vector<double>>& sink_umax_per_hour()
      const noexcept {
    return sink_umax_per_hour_;
  }
  /// The EHr tree 0's sink flooded, one entry per hour.
  [[nodiscard]] const std::vector<double>& ehr_per_hour() const noexcept {
    return ehr_per_hour_;
  }

 private:
  void broadcast_ehr(std::int64_t epoch);

  ExperimentConfig cfg_;
  sim::Rng rng_;
  net::Topology topo_;
  std::unique_ptr<data::ReadingSource> env_;
  std::vector<NodeId> roots_;
  DirqNetwork network_;
  std::optional<LossChannel> loss_;
  std::optional<sim::Scheduler> sched_;
  std::optional<mac::LmacNetwork> mac_;
  std::optional<LmacTransport> lmac_transport_;
  std::set<NodeId> mac_repaired_;  // nodes already handled by tree repair
  std::int64_t current_epoch_ = 0;
  double prior_ehr_;
  std::vector<query::QueryRatePredictor> predictors_;  // one per sink
  std::vector<std::vector<double>> sink_umax_per_hour_;
  std::vector<double> ehr_per_hour_;
};

}  // namespace dirq::core
