// Open-loop query trace generator for the serve plane.
//
// The generator emits a seeded, rate-parameterised stream of query
// *arrivals* on the virtual clock (1 sensing epoch == 1 virtual second),
// fully decoupled from the network's progress: arrivals keep coming
// whether or not the front-end can keep up, which is exactly what makes
// overload representable — a closed-loop generator would throttle itself
// and hide the saturation point.
//
// Arrival shapes:
//   Poisson — exponential inter-arrival times at `rate` arrivals per
//     virtual second, accumulated in continuous time and floored onto the
//     epoch lattice.
//   Burst — the same Poisson process thinned to an on/off duty cycle:
//     arrivals landing in the silent `burst_gap_epochs` window are
//     dropped, so the long-run mean rate is
//     rate * length / (length + gap).
//
// What a query asks is drawn from a fixed predicate pool generated once
// (through the paper's WorkloadGenerator against the epoch-0 field), with
// a popularity skew so the same predicates recur — the recurrence is what
// gives the front-end's result cache something to hit. A slice of
// arrivals narrows its pool window to the middle half, exercising the
// cache's containment path; an optional multi-attribute slice reuses the
// ExperimentConfig::multi_attr_* semantics (those bypass the cache).
//
// Recorded-trace replay: `load_trace` reads a TSV of
// (epoch, type, lo, hi) rows, so a captured production stream (or a
// hand-written scenario) can drive the same front-end.
//
// Determinism: every draw comes from the one Rng handed in; the stream is
// a pure function of (seed, rate, shape, pool) and never observes network
// state — the serve determinism tests lean on exactly that.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <vector>

#include "query/query.hpp"
#include "query/workload.hpp"
#include "sim/rng.hpp"

namespace dirq::serve {

enum class ArrivalShape { Poisson, Burst };

/// One query arrival of the open-loop stream. Ids are unset (0) — the
/// front-end stamps a fresh QueryId at injection time.
struct Arrival {
  std::int64_t epoch = 0;  // virtual arrival time
  bool multi = false;      // conjunctive multi-attribute request
  query::RangeQuery range;   // valid when !multi
  query::MultiQuery multi_q;  // valid when multi
};

struct TraceGenConfig {
  /// Mean arrivals per virtual second (== per epoch).
  double rate = 10.0;
  ArrivalShape shape = ArrivalShape::Poisson;
  /// Burst duty cycle (ignored for Poisson): `burst_length_epochs` of
  /// arrivals, then `burst_gap_epochs` of silence.
  std::int64_t burst_length_epochs = 50;
  std::int64_t burst_gap_epochs = 150;
  /// Distinct base predicates in the pool.
  std::size_t pool_size = 32;
  /// Fraction of arrivals narrowed to the middle half of their pool
  /// window (the cache-containment slice).
  double subset_fraction = 0.25;
  /// Multi-attribute slice (cache-bypassing), reusing the
  /// ExperimentConfig::multi_attr_* semantics.
  double multi_attr_fraction = 0.0;
  std::size_t multi_attr_count = 2;

  /// Throws std::invalid_argument naming the offending field.
  void validate() const;
  /// validate()'s rate check alone: replay ignores every other knob, but
  /// the rate still seeds the serve plane's hour-0 EHr prior.
  void validate_rate() const;
};

class TraceGen {
 public:
  /// Synthetic stream: the pool is drawn through `workload` (which must be
  /// bound to an environment already advanced to epoch 0) and arrivals
  /// from `rng`. The workload generator is only used during construction.
  TraceGen(TraceGenConfig cfg, query::WorkloadGenerator& workload,
           sim::Rng rng);

  /// Replay stream: arrivals come verbatim from a recorded list (see
  /// load_trace); cfg's rate/shape/pool knobs are ignored.
  TraceGen(TraceGenConfig cfg, std::vector<Arrival> recorded);

  /// Appends every not-yet-emitted arrival with arrival epoch <= `epoch`
  /// to `out`, in arrival order. Monotone: epochs passed in must not
  /// decrease.
  void drain_until(std::int64_t epoch, std::vector<Arrival>& out);

  /// Parses a recorded trace: one header line, then one
  /// `epoch <TAB> type <TAB> lo <TAB> hi` row per arrival, epochs
  /// non-decreasing, types in [0, sensor_type_count) — the deployment's
  /// types. Throws std::runtime_error naming the line on malformed input.
  static std::vector<Arrival> load_trace(std::istream& is,
                                         std::size_t sensor_type_count);

  [[nodiscard]] const TraceGenConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::int64_t emitted() const noexcept { return emitted_; }

 private:
  struct PoolEntry {
    SensorType type = 0;
    double lo = 0.0;
    double hi = 0.0;
  };

  void emit_one(std::int64_t epoch, std::vector<Arrival>& out);

  TraceGenConfig cfg_;
  sim::Rng rng_;
  std::vector<PoolEntry> pool_;
  std::vector<query::MultiQuery> multi_pool_;
  double clock_ = 0.0;  // continuous virtual time of the next arrival
  std::int64_t emitted_ = 0;
  // Replay state.
  bool replay_ = false;
  std::vector<Arrival> recorded_;
  std::size_t replay_cursor_ = 0;
};

}  // namespace dirq::serve
