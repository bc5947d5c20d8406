#include "serve/server.hpp"

#include <chrono>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/session.hpp"
#include "query/workload.hpp"
#include "sweep/plan.hpp"

namespace dirq::serve {

void ServeConfig::validate() const {
  exp.validate();
  if (exp.transport != core::TransportKind::Instant) {
    throw std::invalid_argument(
        "ServeConfig: serve requires the instant transport (the front-end "
        "answers at the injecting boundary)");
  }
  if (exp.loss_rate > 0.0) {
    throw std::invalid_argument(
        "ServeConfig: serve does not support lossy channels yet");
  }
  if (duration_epochs <= 0) {
    throw std::invalid_argument("ServeConfig: duration_epochs must be > 0");
  }
  if (replay_path.empty()) {
    trace.validate();
  } else {
    trace.validate_rate();
  }
  front_end.validate();
  if (!(pace_epochs_per_sec >= 0.0)) {
    throw std::invalid_argument(
        "ServeConfig: pace_epochs_per_sec must be >= 0");
  }
  if (trace.multi_attr_fraction > 0.0 &&
      trace.multi_attr_count >
          static_cast<std::size_t>(exp.placement.sensor_type_count)) {
    throw std::invalid_argument(
        "ServeConfig: trace.multi_attr_count exceeds sensor_type_count");
  }
}

ServeResults Server::run() {
  cfg_.validate();

  // Hour-0 prior: the offered rate itself is the best advertised estimate
  // of queries per hour, split evenly across sinks by the Session.
  core::Session session(
      cfg_.exp, cfg_.trace.rate * static_cast<double>(cfg_.exp.epochs_per_hour));
  core::DirqNetwork& network = session.network();
  const std::size_t n_sinks = network.tree_count();

  // The arrival stream's predicate pool is drawn against the epoch-0
  // field, like the batch workload's first query.
  query::WorkloadGenerator workload(
      session.topology(), network.tree(), session.environment(),
      query::WorkloadConfig{cfg_.exp.relevant_fraction, 0.02},
      session.substream("workload"));
  TraceGen trace = [&]() -> TraceGen {
    if (!cfg_.replay_path.empty()) {
      std::ifstream in(cfg_.replay_path);
      if (!in) {
        throw std::runtime_error("serve: cannot open replay trace " +
                                 cfg_.replay_path);
      }
      return TraceGen(cfg_.trace,
                      TraceGen::load_trace(
                          in, cfg_.exp.placement.sensor_type_count));
    }
    return TraceGen(cfg_.trace, workload, session.substream("serve-trace"));
  }();

  core::QueryAdmission admission(cfg_.exp.routing, network.trees());
  FrontEnd front_end(cfg_.front_end, network, admission);
  front_end.set_on_injected([&session](TreeId tree, std::int64_t epoch) {
    session.record_query(tree, epoch);
  });

  using Clock = std::chrono::steady_clock;
  const Clock::time_point wall_start = Clock::now();

  std::vector<Arrival> arrivals;
  session.run(cfg_.duration_epochs, [&](std::int64_t epoch) {
    arrivals.clear();
    trace.drain_until(epoch, arrivals);
    for (const Arrival& a : arrivals) front_end.offer(a);
    if (epoch % cfg_.front_end.inject_period == 0) {
      front_end.on_boundary(epoch);
    }
    if (cfg_.pace_epochs_per_sec > 0.0) {
      // Wall-clock pacing for live demos: sleep until this epoch's
      // deadline. Virtual results never depend on the sleep.
      const auto deadline =
          wall_start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               static_cast<double>(epoch + 1) /
                               cfg_.pace_epochs_per_sec));
      std::this_thread::sleep_until(deadline);
    }
  });

  ServeResults res;
  res.duration_epochs = cfg_.duration_epochs;
  res.totals = front_end.totals();
  res.cache = front_end.cache_stats();
  res.latency = front_end.latency();
  res.sinks.resize(n_sinks);
  for (TreeId t = 0; t < static_cast<TreeId>(n_sinks); ++t) {
    res.sinks[t].root = network.root(t);
    res.sinks[t].injected = front_end.sink_injected(t);
    res.sinks[t].latency = front_end.sink_latency(t);
  }
  res.final_queue_depth = static_cast<std::int64_t>(front_end.queue_depth());
  res.updates_transmitted = network.updates_transmitted();
  res.energy_total = network.costs().total();
  return res;
}

namespace {

using sweep::format_double;

void write_histogram(std::ostream& os, const metrics::LatencyHistogram& h,
                     const char* indent) {
  os << "{\n"
     << indent << "  \"count\": " << h.count() << ",\n"
     << indent << "  \"min\": " << h.min() << ",\n"
     << indent << "  \"max\": " << h.max() << ",\n"
     << indent << "  \"mean\": " << format_double(h.mean()) << ",\n"
     << indent << "  \"p50\": " << h.quantile(0.5) << ",\n"
     << indent << "  \"p95\": " << h.quantile(0.95) << ",\n"
     << indent << "  \"p99\": " << h.quantile(0.99) << "\n"
     << indent << "}";
}

}  // namespace

void write_serve_json(const ServeConfig& cfg, const ServeResults& res,
                      std::ostream& os) {
  const char* arrivals =
      !cfg.replay_path.empty()
          ? "replay"
          : (cfg.trace.shape == ArrivalShape::Burst ? "burst" : "poisson");
  const char* routing = cfg.exp.routing == core::RoutingPolicy::RoundRobin
                            ? "round-robin"
                            : "admission";
  const char* backend =
      cfg.exp.field_backend == data::EnvironmentBackend::Fast ? "fast"
                                                              : "pinned";
  const bool atc =
      cfg.exp.network.mode == core::NetworkConfig::ThetaMode::Atc;
  os << "{\n";
  os << "  \"schema\": \"dirq.serve.v1\",\n";
  os << "  \"config\": {\n";
  os << "    \"seed\": " << cfg.exp.seed << ",\n";
  os << "    \"nodes\": " << cfg.exp.placement.node_count << ",\n";
  os << "    \"sinks\": " << cfg.exp.resolved_sink_count() << ",\n";
  os << "    \"routing\": \"" << routing << "\",\n";
  os << "    \"backend\": \"" << backend << "\",\n";
  os << "    \"theta\": \""
     << (atc ? std::string("atc")
             : "fixed:" + format_double(cfg.exp.network.fixed_pct))
     << "\",\n";
  os << "    \"duration_epochs\": " << res.duration_epochs << ",\n";
  os << "    \"arrivals\": \"" << arrivals << "\",\n";
  os << "    \"rate\": " << format_double(cfg.trace.rate) << ",\n";
  os << "    \"cache\": " << (cfg.front_end.cache_enabled ? "true" : "false")
     << ",\n";
  os << "    \"cache_entries\": " << cfg.front_end.cache_entries << ",\n";
  os << "    \"stale_epochs\": " << cfg.front_end.stale_epochs << ",\n";
  os << "    \"inject_period\": " << cfg.front_end.inject_period << ",\n";
  os << "    \"max_inject_per_boundary\": "
     << cfg.front_end.max_inject_per_boundary << ",\n";
  os << "    \"max_queue\": " << cfg.front_end.max_queue << "\n";
  os << "  },\n";
  os << "  \"totals\": {\n";
  os << "    \"arrived\": " << res.totals.arrived << ",\n";
  os << "    \"answered\": " << res.totals.answered << ",\n";
  os << "    \"injected\": " << res.totals.injected << ",\n";
  os << "    \"cache_answered\": " << res.totals.cache_answered << ",\n";
  os << "    \"shed\": " << res.totals.shed << ",\n";
  os << "    \"peak_queue_depth\": " << res.totals.peak_queue_depth << ",\n";
  os << "    \"final_queue_depth\": " << res.final_queue_depth << "\n";
  os << "  },\n";
  os << "  \"cache\": {\n";
  os << "    \"fresh_hits\": " << res.cache.fresh_hits << ",\n";
  os << "    \"stale_hits\": " << res.cache.stale_hits << ",\n";
  os << "    \"containment_hits\": " << res.cache.containment_hits << ",\n";
  os << "    \"misses\": " << res.cache.misses << ",\n";
  os << "    \"expired\": " << res.cache.expired << ",\n";
  os << "    \"insertions\": " << res.cache.insertions << ",\n";
  os << "    \"evictions\": " << res.cache.evictions << ",\n";
  os << "    \"uncacheable\": " << res.cache.uncacheable << "\n";
  os << "  },\n";
  os << "  \"throughput\": {\n";
  os << "    \"offered_per_epoch\": " << format_double(res.offered_rate())
     << ",\n";
  os << "    \"qps\": " << format_double(res.qps()) << "\n";
  os << "  },\n";
  os << "  \"latency_epochs\": ";
  write_histogram(os, res.latency, "  ");
  os << ",\n";
  os << "  \"sinks\": [\n";
  for (std::size_t k = 0; k < res.sinks.size(); ++k) {
    os << "    {\"root\": " << res.sinks[k].root
       << ", \"injected\": " << res.sinks[k].injected
       << ", \"answered\": " << res.sinks[k].latency.count()
       << ", \"p50\": " << res.sinks[k].latency.quantile(0.5)
       << ", \"p99\": " << res.sinks[k].latency.quantile(0.99) << "}"
       << (k + 1 < res.sinks.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"network\": {\n";
  os << "    \"updates_transmitted\": " << res.updates_transmitted << ",\n";
  os << "    \"energy_total\": " << res.energy_total << "\n";
  os << "  }\n";
  os << "}\n";
}

}  // namespace dirq::serve
