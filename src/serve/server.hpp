// The serve plane's long-lived driver: `dirqsim serve`.
//
// Where core::Experiment runs the paper's closed evaluation loop (one
// query every query_period, answered before the next), the Server runs the
// network as a *service* on the same core::Session (world, EHr cadence,
// epoch clock): 1 epoch == 1 virtual second while an open-loop
// serve::TraceGen pushes query arrivals at the front-end, which batches
// them through admission and the result cache. Overload is a first-class
// state — arrivals outrun the injection budget, the queue grows, latency
// climbs, and eventually arrivals shed — instead of being unrepresentable.
//
// Determinism contract: a run is a pure function of its ServeConfig. The
// dirq.serve.v1 JSON contains no wall-clock times and no thread counts, so
// two runs with the same config — at ANY --threads value, since the
// parallel epoch engine merges deterministically — emit byte-identical
// bytes. Wall-clock pacing (`pace_epochs_per_sec`) only throttles how fast
// virtual time advances; it never leaks into results.
//
// The serve plane is instant-transport and lossless only: the front-end
// answers a query at the boundary that injects it (needs the synchronous
// audit), and the result cache's cache-vs-live bitwise contract assumes
// re-running a query reads identical network state — a lossy channel's
// per-delivery counters advance on re-injection and would break that.
// Session builds LMAC and lossy worlds for batch; serving them needs an
// asynchronous completion path and loss-aware cache invalidation —
// validate() rejects those configs rather than quietly mis-measuring.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>

#include "core/experiment.hpp"
#include "metrics/histogram.hpp"
#include "serve/cache.hpp"
#include "serve/front_end.hpp"
#include "serve/trace_gen.hpp"

namespace dirq::serve {

struct ServeConfig {
  /// World parameters (seed, placement, sinks, routing, theta, backend,
  /// threads). transport must stay Instant and loss_rate 0 — validate()
  /// enforces it. epochs/query_period/burst fields are ignored: the serve
  /// plane has its own clock and arrival process.
  core::ExperimentConfig exp{};
  /// Virtual run length: how many epochs the pacer advances.
  std::int64_t duration_epochs = 2000;
  TraceGenConfig trace{};
  FrontEndConfig front_end{};
  /// Non-empty: replay a recorded TSV trace instead of the synthetic
  /// stream (see TraceGen::load_trace).
  std::string replay_path;
  /// 0 (default): advance virtual time as fast as the host allows. > 0:
  /// pace the loop to this many epochs per wall-clock second (a live
  /// service demo; results are identical either way).
  double pace_epochs_per_sec = 0.0;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
};

struct ServeSinkStats {
  NodeId root = 0;
  std::int64_t injected = 0;
  metrics::LatencyHistogram latency;
};

struct ServeResults {
  std::int64_t duration_epochs = 0;
  FrontEnd::Totals totals;
  CacheStats cache;
  metrics::LatencyHistogram latency;
  std::vector<ServeSinkStats> sinks;
  std::int64_t final_queue_depth = 0;  // in-flight backlog at shutdown
  std::int64_t updates_transmitted = 0;
  CostUnits energy_total = 0;

  /// Served throughput in queries per virtual second (== per epoch).
  [[nodiscard]] double qps() const noexcept {
    return duration_epochs > 0 ? static_cast<double>(totals.answered) /
                                     static_cast<double>(duration_epochs)
                               : 0.0;
  }
  [[nodiscard]] double offered_rate() const noexcept {
    return duration_epochs > 0 ? static_cast<double>(totals.arrived) /
                                     static_cast<double>(duration_epochs)
                               : 0.0;
  }
};

class Server {
 public:
  explicit Server(ServeConfig cfg) : cfg_(std::move(cfg)) {}

  /// Builds a core::Session and runs the paced serve loop on it.
  ServeResults run();

  [[nodiscard]] const ServeConfig& config() const noexcept { return cfg_; }

 private:
  ServeConfig cfg_;
};

/// Emits the dirq.serve.v1 JSON document: config echo, totals, cache
/// stats, throughput, latency percentiles, per-sink breakdown, network
/// counters. Byte-stable — numbers via sweep::format_double, no wall
/// times, no thread counts.
void write_serve_json(const ServeConfig& cfg, const ServeResults& res,
                      std::ostream& os);

}  // namespace dirq::serve
