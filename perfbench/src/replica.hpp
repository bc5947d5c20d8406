// Traced replicas of the product drivers. Each replays a workload by
// calling every layer's public functions in the order Experiment::run and
// Server::run call them, with a span around each call and the engine's
// readings routed through a ForwardingSource. A replica must reproduce
// the product run's byte-stable document exactly.
#pragma once

#include <cstdint>

#include "serve/cache.hpp"
#include "serve/front_end.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Everything one traced replay measured, summed over its worlds.
struct LayerRun {
  RunOutcome outcome;
  SpanTable spans;
  // Forwarded reading plane.
  double readings_s = 0.0;
  std::int64_t readings_calls = 0;
  std::int64_t readings_values = 0;
  std::int64_t readings_in_epoch_ns = 0;  // union inside Epoch spans
  // Topology and engine counters.
  std::int64_t links = 0;
  std::int64_t samples = 0;
  std::int64_t samples_skipped = 0;
  std::int64_t updates = 0;
  std::int64_t update_units = 0;
  std::int64_t query_units = 0;
  std::int64_t control_units = 0;
  std::int64_t cross_tree_units = 0;
  std::int64_t loss_offered = 0;
  std::int64_t loss_dropped = 0;
  std::int64_t mac_control_units = 0;
  std::int64_t mac_data_units = 0;
  // Serve plane.
  std::int64_t arrivals = 0;
  dirq::serve::CacheStats cache;
  dirq::serve::FrontEnd::Totals totals;

  void merge(const LayerRun& o);
};

/// Replays `w` with `threads` engine threads (sweep workers on
/// paper_grid, whose cells run one engine thread each, as in the product).
LayerRun run_replica(const Workload& w, unsigned threads);

}  // namespace perfbench
