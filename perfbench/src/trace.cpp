#include "trace.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

void SpanStats::merge(const SpanStats& o) {
  total_s += o.total_s;
  call_us.insert(call_us.end(), o.call_us.begin(), o.call_us.end());
}

double SpanStats::quantile_us(double q) const {
  if (call_us.empty()) return 0.0;
  std::vector<double> v = call_us;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::clamp<std::size_t>(rank, 1, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

std::int32_t Tracer::open(Span name) {
  spans_.push_back({name, open_, now_ns(), 0});
  open_ = static_cast<std::int32_t>(spans_.size() - 1);
  return open_;
}

void Tracer::close(std::int32_t idx) {
  SpanRecord& s = spans_[static_cast<std::size_t>(idx)];
  s.end_ns = now_ns();
  open_ = s.parent;
  last_ = idx;
}

SpanTable Tracer::table() const {
  SpanTable t;
  for (const SpanRecord& s : spans_) {
    const double us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    SpanStats& st = t[static_cast<std::size_t>(s.name)];
    st.total_s += us / 1e6;
    st.call_us.push_back(us);
  }
  return t;
}

void ForwardingSource::readings(dirq::SensorType type,
                                std::span<const dirq::NodeId> nodes,
                                std::span<double> out) const {
  const std::int64_t begin = now_ns();
  inner_.readings(type, nodes, out);
  const std::int64_t end = now_ns();
  const std::lock_guard<std::mutex> lock(mu_);
  intervals_.emplace_back(begin, end);
  busy_ns_ += end - begin;
  ++calls_;
  values_ += static_cast<std::int64_t>(nodes.size());
}

std::int64_t ForwardingSource::take_covered_ns(std::int64_t begin_ns,
                                               std::int64_t end_ns) {
  const std::lock_guard<std::mutex> lock(mu_);
  std::sort(intervals_.begin(), intervals_.end());
  std::int64_t covered = 0;
  std::int64_t reach = begin_ns;  // end of the union so far
  for (const auto& [b, e] : intervals_) {
    const std::int64_t lo = std::max(b, reach);
    const std::int64_t hi = std::min(e, end_ns);
    if (hi > lo) covered += hi - lo;
    reach = std::max(reach, std::min(e, end_ns));
  }
  intervals_.clear();
  return covered;
}

double ForwardingSource::busy_s() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return static_cast<double>(busy_ns_) / 1e9;
}

std::int64_t ForwardingSource::calls() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return calls_;
}

std::int64_t ForwardingSource::values() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return values_;
}

}  // namespace perfbench
