#include "core/atc.hpp"

#include <algorithm>
#include <cmath>

namespace dirq::core {

AtcController::AtcController(AtcConfig cfg) : cfg_(cfg) {}

AtcController::TypeState& AtcController::state(SensorType type) {
  auto it = types_.find(type);
  if (it == types_.end()) {
    it = types_.emplace(type, TypeState(cfg_.variability_alpha)).first;
  }
  return it->second;
}

double AtcController::theta(SensorType type) const {
  double scale = 1.0;
  if (auto it = types_.find(type); it != types_.end()) {
    scale = it->second.theta_scale;
  }
  const double pct =
      std::clamp(cfg_.initial_pct * scale, cfg_.min_pct, cfg_.max_pct);
  return pct / 100.0 * nominal_span(type);
}

void AtcController::on_reading(SensorType type, double reading) {
  TypeState& st = state(type);
  if (st.has_prev) {
    st.variability.push(std::abs(reading - st.prev_reading));
  }
  st.prev_reading = reading;
  st.has_prev = true;
}

void AtcController::on_update_sent(SensorType type, std::int64_t epoch) {
  const std::int64_t window_start = epoch - cfg_.rate_window_epochs;
  for (auto* w : {&sent_epochs_, &state(type).sent_epochs}) {
    w->push_back(epoch);
    // !empty(): a negative window (ExperimentConfig rejects any below 1,
    // this class does not) trims the entry just appended too.
    while (!w->empty() && w->front() < window_start) w->pop_front();
  }
}

void AtcController::on_ehr(const EhrMessage& msg, std::int64_t /*epoch*/) {
  if (msg.alive_nodes == 0) return;
  // Fair share of the network-wide budget. Every transmission (origin or
  // relay) counts against it, matching Fig. 6's network-wide msg count.
  budget_per_hour_ = msg.umax_per_hour / static_cast<double>(msg.alive_nodes);
}

std::size_t AtcController::in_window(const std::deque<std::int64_t>& window,
                                     std::int64_t epoch) const {
  const std::int64_t window_start = epoch - cfg_.rate_window_epochs;
  std::size_t n = 0;
  for (auto it = window.rbegin(); it != window.rend() && *it >= window_start;
       ++it) {
    ++n;
  }
  return n;
}

double AtcController::estimated_rate_per_hour(std::int64_t epoch) const {
  return static_cast<double>(in_window(sent_epochs_, epoch)) *
         static_cast<double>(kEpochsPerHour) /
         static_cast<double>(cfg_.rate_window_epochs);
}

void AtcController::on_epoch(std::int64_t epoch) {
  if (epoch - last_adjust_epoch_ >= cfg_.adjust_period) {
    last_adjust_epoch_ = epoch;
    adjust(epoch);
  }
}

void AtcController::adjust(std::int64_t epoch) {
  if (budget_per_hour_ <= 0.0) return;  // no EHr received yet
  const double rate = estimated_rate_per_hour(epoch);
  const double lo = cfg_.band_lo * budget_per_hour_;
  const double hi = cfg_.band_hi * budget_per_hour_;

  // Direction is shared by all types (updates are not attributed to a
  // type in the window), but the step is scaled per type by the observed
  // variability: a volatile signal needs a bigger theta change to alter
  // its update rate, a quiet one barely any.
  double direction = 0.0;
  if (rate > hi) {
    direction = cfg_.gain_up;
  } else if (rate < lo) {
    direction = -cfg_.gain_down;
  } else {
    return;  // inside the paper's 45-55 % band: hold
  }

  const auto total_sent = static_cast<double>(in_window(sent_epochs_, epoch));
  for (auto& [type, st] : types_) {
    // Widening throttles update traffic, so it only makes sense for types
    // actually producing traffic: scale the widen step by this type's
    // share of the window's transmissions. A silent type (e.g. a slow
    // soil-moisture field) must never be dragged wide by its chatty
    // co-located siblings — wide-and-stale ranges miss real sources.
    // Narrowing (direction < 0) buys accuracy for free and applies to all.
    double share = 1.0;
    if (direction > 0.0) {
      share = total_sent > 0.0
                  ? static_cast<double>(in_window(st.sent_epochs, epoch)) /
                        total_sent
                  : 0.0;
      if (share <= 0.0) continue;
    }
    double vol_factor = 1.0;
    if (st.variability.initialized()) {
      // Normalise variability against the current absolute theta: if the
      // signal moves ~theta per epoch, full step; if it barely moves,
      // shrink the step (nothing to gain from changing theta fast).
      const double theta_abs =
          std::clamp(cfg_.initial_pct * st.theta_scale, cfg_.min_pct,
                     cfg_.max_pct) /
          100.0 * nominal_span(type);
      const double vol = st.variability.value() / std::max(theta_abs, 1e-9);
      vol_factor = std::clamp(vol, 0.25, 2.0);
    }
    if (cfg_.law == AtcLaw::Multiplicative) {
      st.theta_scale *= (1.0 + direction * vol_factor * share);
    } else {
      // Additive: move theta by a fixed number of span-percentage points
      // (expressed in scale units), same sign convention.
      const double step_scale = cfg_.additive_step_pct / cfg_.initial_pct;
      st.theta_scale +=
          (direction > 0.0 ? 1.0 : -1.0) * step_scale * vol_factor * share;
    }
    // Keep the scale inside the pct clamp range so it cannot wind up.
    const double min_scale = cfg_.min_pct / cfg_.initial_pct;
    const double max_scale = cfg_.max_pct / cfg_.initial_pct;
    st.theta_scale = std::clamp(st.theta_scale, min_scale, max_scale);
  }
}

}  // namespace dirq::core
