// E11 — serve-plane throughput: the long-lived query front-end under an
// open-loop Poisson stream (ROADMAP "Service mode"). Not a paper figure;
// the paper evaluates batch epochs — this bench measures what the serve
// plane sustains on the scaled fast-field topology and what the
// containment-aware result cache buys at each offered rate.
//
//   bench_serve_throughput [--nodes N] [--rates LIST] [--sinks LIST]
//                          [--duration E] [--json FILE]
//
// For each (rate, sinks, cache) cell: one serve run, wall-clock, the
// dirq.serve.v1 counters that matter for regression tracking (virtual qps,
// answered, cache hit rate, shed, p50/p99 latency in epochs), and the
// network-side cost (updates transmitted, energy). Within one (rate,
// sinks) pair the cache-on cell must answer at least the cache-off cell's
// qps from the identical arrival stream — tools/perf_smoke.sh asserts the
// strict version of that self-relative invariant.
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "net/placement.hpp"
#include "serve/server.hpp"

namespace {

using namespace dirq;
using Clock = std::chrono::steady_clock;

constexpr const char* kTool = "bench_serve_throughput";

bench::Row run_cell(std::size_t nodes, std::int64_t duration, double rate,
                    std::size_t sinks, bool cache) {
  serve::ServeConfig cfg;
  cfg.exp.seed = 42;
  cfg.exp.placement = net::scaled_placement(nodes);
  cfg.exp.field_backend = data::EnvironmentBackend::Fast;
  cfg.exp.network.mode = core::NetworkConfig::ThetaMode::Fixed;
  cfg.exp.network.fixed_pct = 5.0;
  cfg.exp.keep_records = false;
  cfg.exp.sink_count = sinks;
  cfg.duration_epochs = duration;
  cfg.trace.rate = rate;
  cfg.front_end.cache_enabled = cache;

  const auto start = Clock::now();
  const serve::ServeResults res = serve::Server(cfg).run();
  const double run_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  std::cerr << "  rate " << rate << " x " << sinks << " sink(s), cache "
            << (cache ? "on" : "off") << ": qps " << metrics::fmt(res.qps())
            << " (" << metrics::fmt(run_seconds) << " s)\n";

  bench::Row row;
  row.add("nodes", nodes)
      .add("duration", duration)
      .add("rate", rate)
      .add("sinks", sinks)
      .add("cache", cache)
      .add("run_seconds", run_seconds)
      .add("epochs_per_sec",
           run_seconds > 0.0 ? static_cast<double>(duration) / run_seconds
                             : 0.0)
      .add("arrived", res.totals.arrived)
      .add("answered", res.totals.answered)
      .add("injected", res.totals.injected)
      .add("cache_answered", res.totals.cache_answered)
      .add("shed", res.totals.shed)
      .add("qps", res.qps())
      // Cache hits / lookups; 0 when the cache is off.
      .add("hit_rate", res.cache.lookups() > 0
                           ? static_cast<double>(res.cache.hits()) /
                                 static_cast<double>(res.cache.lookups())
                           : 0.0)
      .add("p50", res.latency.quantile(0.5))
      .add("p99", res.latency.quantile(0.99))
      .add("updates", res.updates_transmitted)
      .add("energy", res.energy_total);
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t nodes = 500;
  std::vector<double> rates{20.0, 100.0};
  std::vector<std::size_t> sink_counts{1, 4};
  std::int64_t duration = 2000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--nodes" && next != nullptr) {
      nodes = static_cast<std::size_t>(
          bench::parse_count(kTool, "--nodes", next));
      ++i;
    } else if (arg == "--rates" && next != nullptr) {
      rates = bench::parse_list(
          kTool, "--rates", next, [](const std::string& s) {
            return bench::parse_real(kTool, "--rates", s, "positive numbers",
                                     [](double r) { return r > 0.0; });
          });
      ++i;
    } else if (arg == "--sinks" && next != nullptr) {
      sink_counts = bench::parse_list(
          kTool, "--sinks", next, [](const std::string& s) {
            return static_cast<std::size_t>(
                bench::parse_count(kTool, "--sinks", s));
          });
      ++i;
    } else if (arg == "--duration" && next != nullptr) {
      duration = bench::parse_count(kTool, "--duration", next);
      ++i;
    } else if (arg == "--json" && next != nullptr) {
      json_path = next;
      ++i;
    } else {
      std::cerr << "usage: bench_serve_throughput [--nodes N] [--rates LIST]"
                   " [--sinks LIST] [--duration E] [--json FILE]\n";
      return 2;
    }
  }

  dirq::bench::print_header(
      "E11 — serve-plane throughput: rate x sinks x cache",
      "ROADMAP 'Service mode'; fast field, fixed theta=5%, Poisson arrivals");

  std::vector<bench::Row> rows;
  for (double rate : rates) {
    for (std::size_t s : sink_counts) {
      for (bool cache : {false, true}) {
        rows.push_back(run_cell(nodes, duration, rate, s, cache));
      }
    }
  }

  bench::report(kTool, "serve tier: sustained qps + tail latency",
                "dirq.serve_bench.v1", rows, json_path);
  return 0;
}
