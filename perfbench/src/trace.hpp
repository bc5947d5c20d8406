// Bench-side tracing: spans recorded around calls into the DirQ layers,
// and a forwarding ReadingSource that times the engine's reading plane.
//
// Nothing here reaches inside the program. A Tracer belongs to one replica
// run on one thread; the forwarding source is the only piece the epoch
// engine calls from its pool workers, so it alone synchronises.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "data/reading_source.hpp"

namespace perfbench {

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One name per layer call a traced replica wraps.
enum class Span : std::uint8_t {
  NetBuild,      // net::random_connected (+ net::spread_roots)
  EnvBuild,      // data::make_environment
  NetworkBuild,  // core::DirqNetwork ctor (bootstrap wave) + set_threads
  MacBuild,      // mac::LmacNetwork ctor + start, transport wiring
  Advance,       // ReadingSource::advance_to
  Epoch,         // DirqNetwork::process_epoch
  Ehr,           // DirqNetwork::broadcast_ehr
  Inject,        // DirqNetwork::inject / inject_async
  Collect,       // DirqNetwork::collect_outcome
  Admission,     // QueryAdmission::sync_load + route
  QueryNext,     // WorkloadGenerator::next / next_multi
  Involvement,   // query::compute_involvement
  Audit,         // metrics::audit_query (delivery + answer)
  MacDrain,      // sim::Scheduler::run_until, one LMAC frame
  TraceDrain,    // serve::TraceGen::drain_until
  Offer,         // serve::FrontEnd::offer
  Boundary,      // serve::FrontEnd::on_boundary
  kCount
};
inline constexpr std::size_t kSpanCount = static_cast<std::size_t>(Span::kCount);

struct SpanRecord {
  Span name = Span::Epoch;
  std::int32_t parent = -1;  // index of the enclosing span, -1 at top level
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Per-name aggregate: busy time summed over calls and the per-call
/// durations for percentiles.
struct SpanStats {
  double total_s = 0.0;
  std::vector<double> call_us;

  void merge(const SpanStats& o);
  [[nodiscard]] std::int64_t calls() const noexcept {
    return static_cast<std::int64_t>(call_us.size());
  }
  /// Nearest-rank quantile of the per-call durations (0 when no calls).
  [[nodiscard]] double quantile_us(double q) const;
};
using SpanTable = std::array<SpanStats, kSpanCount>;

/// In-memory span log of one replica run.
class Tracer {
 public:
  /// Runs `f` inside a span named `name` and returns what it returns.
  template <typename F>
  decltype(auto) span(Span name, F&& f) {
    const std::int32_t idx = open(name);
    if constexpr (std::is_void_v<std::invoke_result_t<F&>>) {
      f();
      close(idx);
    } else {
      decltype(auto) r = f();
      close(idx);
      return r;
    }
  }

  /// The most recently closed span.
  [[nodiscard]] const SpanRecord& last() const { return spans_.at(last_); }

  [[nodiscard]] SpanTable table() const;

 private:
  std::int32_t open(Span name);
  void close(std::int32_t idx);

  std::vector<SpanRecord> spans_;
  std::int32_t open_ = -1;
  std::int32_t last_ = -1;
};

/// Calls `f` inside a span when a tracer is given, directly otherwise.
template <typename F>
decltype(auto) maybe_span(Tracer* tr, Span name, F&& f) {
  if (tr != nullptr) return tr->span(name, std::forward<F>(f));
  return f();
}

/// Forwards every call to the real source and times the batch reading
/// plane. Passes the concurrency claims through unchanged, so the epoch
/// engine takes the same path it takes on the real source.
class ForwardingSource final : public dirq::data::ReadingSource {
 public:
  explicit ForwardingSource(dirq::data::ReadingSource& inner) : inner_(inner) {}

  void advance_to(std::int64_t epoch) override { inner_.advance_to(epoch); }
  [[nodiscard]] double reading(dirq::NodeId node,
                               dirq::SensorType type) const override {
    return inner_.reading(node, type);
  }
  void readings(dirq::SensorType type, std::span<const dirq::NodeId> nodes,
                std::span<double> out) const override;
  [[nodiscard]] bool concurrent_type_batches() const noexcept override {
    return inner_.concurrent_type_batches();
  }
  [[nodiscard]] bool concurrent_intra_type_chunks() const noexcept override {
    return inner_.concurrent_intra_type_chunks();
  }
  [[nodiscard]] std::size_t type_count() const override {
    return inner_.type_count();
  }
  [[nodiscard]] std::int64_t epoch() const override { return inner_.epoch(); }

  /// Length of the union of the readings intervals recorded since the
  /// last call, clipped to [begin_ns, end_ns]; forgets them.
  [[nodiscard]] std::int64_t take_covered_ns(std::int64_t begin_ns,
                                             std::int64_t end_ns);

  [[nodiscard]] double busy_s() const;
  [[nodiscard]] std::int64_t calls() const;
  [[nodiscard]] std::int64_t values() const;

 private:
  dirq::data::ReadingSource& inner_;
  mutable std::mutex mu_;  // guards the four members below
  mutable std::vector<std::pair<std::int64_t, std::int64_t>> intervals_;
  mutable std::int64_t busy_ns_ = 0;
  mutable std::int64_t calls_ = 0;
  mutable std::int64_t values_ = 0;
};

}  // namespace perfbench
