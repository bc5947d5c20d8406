// Threshold control: fixed thresholds (paper §7.1) and the Adaptive
// Threshold Control mechanism (paper §6).
//
// The paper expresses thresholds as percentages (theta = 3%, 5%, 9%); we
// interpret the percentage against each sensor type's nominal value span
// (the realistic dynamic range of the physical quantity), giving an
// absolute threshold in sensor units:
//
//     theta_abs(type) = theta_pct / 100 * nominal_span(type)
//
// ATC itself is reconstructed from the paper's constraints — the detailed
// mechanism lives in the unavailable ref [13]; see DESIGN.md §1.7 for the
// full rationale. In short:
//
//   * the root derives Umax/Hr = fMax(k, d) * EHr and broadcasts it with
//     the hourly EHr estimate;
//   * each node takes the fair share Umax/Hr / N as its local update-rate
//     budget and steers its transmission rate into the paper's
//     [0.45, 0.55] * budget band by multiplicative theta adjustment;
//   * adjustment steps scale with the locally observed rate of variation
//     of the measured parameter (EWMA of |reading delta|), so a volatile
//     sensor converges in a few steps instead of drifting for hours.
#pragma once

#include <cstdint>
#include <deque>
#include <map>

#include "core/messages.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace dirq::core {

/// Nominal dynamic range of each sensor type in sensor units; the base the
/// paper's theta percentages are applied to. Matches the default field
/// parameters in src/data (diurnal swing + front amplitude + noise).
/// Constexpr-inline: theta(type) sits on the per-sample hot path.
constexpr double nominal_span(SensorType type) noexcept {
  switch (type) {
    case kSensorTemperature: return 22.0;   // ~11 C to ~33 C
    case kSensorHumidity: return 45.0;      // ~35 % to ~80 %
    case kSensorLight: return 1100.0;       // ~0 to ~1100 lux
    case kSensorSoilMoisture: return 25.0;  // ~22 % to ~47 %
    default: return 30.0;
  }
}

/// Strategy interface consulted by DirqNode for the current threshold.
class ThetaController {
 public:
  virtual ~ThetaController() = default;

  /// Absolute threshold for this sensor type, in sensor units.
  [[nodiscard]] virtual double theta(SensorType type) const = 0;

  /// Threshold as a percentage of the type's nominal span (for reporting).
  [[nodiscard]] double theta_pct(SensorType type) const {
    return theta(type) / nominal_span(type) * 100.0;
  }

  // Feedback hooks (no-ops for fixed thresholds). The epoch engine calls
  // on_reading from its parallel sensing phase, so it may touch only this
  // controller's own state and must leave theta alone. Every other hook
  // runs on the calling thread: on_update_sent and on_epoch at the node's
  // position in the sequential walk (on_epoch after the node's own
  // commits), on_ehr during the hourly flood.
  virtual void on_reading(SensorType /*type*/, double /*reading*/) {}
  virtual void on_update_sent(SensorType /*type*/, std::int64_t /*epoch*/) {}
  virtual void on_ehr(const EhrMessage& /*msg*/, std::int64_t /*epoch*/) {}
  virtual void on_epoch(std::int64_t /*epoch*/) {}
};

/// Fixed threshold: theta_pct percent of each type's nominal span.
class FixedTheta final : public ThetaController {
 public:
  explicit FixedTheta(double theta_pct) : pct_(theta_pct) {}
  [[nodiscard]] double theta(SensorType type) const override {
    return pct_ / 100.0 * nominal_span(type);
  }

 private:
  double pct_;
};

/// Control law for the theta adjustment step (ablation A1, DESIGN.md §4).
enum class AtcLaw {
  Multiplicative,  // theta *= (1 +- gain): scale-free, the default
  Additive,        // theta += +- step_pct of span: fixed-size steps
};

struct AtcConfig {
  AtcLaw law = AtcLaw::Multiplicative;
  double additive_step_pct = 0.4;  // step size (in span %) for Additive
  double initial_pct = 5.0;  // starting theta before the first EHr arrives
  double min_pct = 0.5;      // accuracy floor
  /// Update-suppression ceiling. Also bounds the worst-case staleness of
  /// any announced range (theta per hop), i.e. the coverage guarantee.
  double max_pct = 12.0;
  /// Sliding window (epochs, >= 1) over which the node estimates its own
  /// update-transmission rate. One paper "hour" is 3600 epochs; a shorter
  /// window reacts faster at the price of estimation noise.
  std::int64_t rate_window_epochs = 600;
  /// Control step applied every `adjust_period` epochs.
  std::int64_t adjust_period = 50;
  double gain_up = 0.10;    // multiplicative widen step when over budget
  double gain_down = 0.05;  // multiplicative narrow step when under budget
  /// Band targeted around the fair-share budget; the paper pins the
  /// network-wide cost between 0.45 and 0.55 of flooding (abstract, §6).
  double band_lo = 0.45;
  double band_hi = 0.55;
  /// EWMA smoothing for the local rate-of-variation estimate.
  double variability_alpha = 0.05;
};

/// Per-node ATC state machine (one instance per node; tracks all types).
class AtcController final : public ThetaController {
 public:
  explicit AtcController(AtcConfig cfg);

  [[nodiscard]] double theta(SensorType type) const override;

  void on_reading(SensorType type, double reading) override;
  void on_update_sent(SensorType type, std::int64_t epoch) override;
  void on_ehr(const EhrMessage& msg, std::int64_t epoch) override;
  /// Adjusts theta every adjust_period epochs; otherwise does nothing.
  void on_epoch(std::int64_t epoch) override;

  /// Node's current updates/hour budget share (0 before the first EHr).
  [[nodiscard]] double budget_per_hour() const noexcept { return budget_per_hour_; }

  /// Estimated own update transmissions per hour over the sliding window.
  [[nodiscard]] double estimated_rate_per_hour(std::int64_t epoch) const;

  [[nodiscard]] const AtcConfig& config() const noexcept { return cfg_; }

 private:
  struct TypeState {
    double theta_scale = 1.0;  // multiplier on the initial theta
    sim::Ewma variability;     // EWMA of |reading - prev reading|
    double prev_reading = 0.0;
    bool has_prev = false;
    std::deque<std::int64_t> sent_epochs;  // this type's txs; see sent_epochs_
    TypeState() : variability(0.0) {}
    explicit TypeState(double alpha) : variability(alpha) {}
  };

  TypeState& state(SensorType type);
  void adjust(std::int64_t epoch);
  /// Entries of `window` at or after epoch - rate_window_epochs.
  [[nodiscard]] std::size_t in_window(const std::deque<std::int64_t>& window,
                                      std::int64_t epoch) const;

  AtcConfig cfg_;
  std::map<SensorType, TypeState> types_;
  // Epochs of update txs, all types and per type, in non-decreasing order.
  // Each append trims the window below its own epoch, so entries a later
  // epoch has pushed out may linger until the next append; every reader
  // counts in-window entries from the back (in_window).
  std::deque<std::int64_t> sent_epochs_;
  double budget_per_hour_ = 0.0;
  std::int64_t last_adjust_epoch_ = 0;
};

}  // namespace dirq::core
