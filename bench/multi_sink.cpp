// E10 — multi-sink query plane: admission routing vs round-robin as the
// sink count grows (ROADMAP "Multi-sink query plane"). Not a paper figure;
// the paper deploys one sink — this bench measures what the N-tree overlay
// costs (cross-tree update overhead) and what the admission policy buys
// (per-sink energy balance) on the scaled topologies.
//
//   bench_multi_sink [--nodes LIST] [--sinks LIST] [--epochs N]
//                    [--threads LIST] [--json FILE]
//
// For each (nodes, sinks, routing, threads) cell: one full fixed-theta
// experiment, wall-clock, the global ledger, the per-sink ledgers, and the
// energy spread ((max-min)/mean of per-sink totals — 0 is perfectly
// balanced). Routing only matters with >= 2 sinks, so the 1-sink cell runs
// once and serves as the baseline for both policies. --threads values are
// worker counts for the epoch engine's sensing phase (0 = all cores; results
// are byte-identical across the axis, only run_seconds moves — the rows
// feed tools/perf_smoke.sh's self-relative speedup guard).
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "net/placement.hpp"

namespace {

using namespace dirq;
using Clock = std::chrono::steady_clock;

constexpr const char* kTool = "bench_multi_sink";

bench::Row run_cell(std::size_t nodes, std::int64_t epochs, std::size_t sinks,
                    core::RoutingPolicy routing, unsigned threads) {
  // "-" for 1 sink: routing only matters with >= 2.
  const char* routing_name =
      sinks < 2 ? "-"
      : routing == core::RoutingPolicy::RoundRobin ? "roundrobin"
                                                   : "admission";

  core::ExperimentConfig cfg;
  cfg.seed = 42;
  cfg.placement = net::scaled_placement(nodes);
  cfg.epochs = epochs;
  cfg.network.mode = core::NetworkConfig::ThetaMode::Fixed;
  cfg.network.fixed_pct = 5.0;
  cfg.keep_records = false;
  cfg.sink_count = sinks;
  cfg.routing = routing;
  cfg.threads = threads;

  const auto start = Clock::now();
  const core::ExperimentResults res = core::Experiment(cfg).run();
  const double run_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  const unsigned effective = core::Experiment::effective_threads(cfg);
  std::cerr << "  " << nodes << "n x " << sinks << " sink(s) ("
            << routing_name << ") x " << effective << "t done ("
            << metrics::fmt(run_seconds) << " s)\n";

  std::vector<CostUnits> sink_totals;
  for (const core::CostLedger& led : res.sink_ledgers) {
    sink_totals.push_back(led.total());
  }
  bench::Row row;
  row.add("nodes", nodes)
      .add("epochs", epochs)
      .add("sinks", sinks)
      .add("routing", routing_name)
      .add("threads", effective)
      .add("run_seconds", run_seconds)
      .add("epochs_per_sec",
           run_seconds > 0.0 ? static_cast<double>(epochs) / run_seconds : 0.0)
      .add("queries", res.queries)
      .add("dirq_total", res.ledger.total())
      .add("cross_tree_overhead", res.cross_tree_update_overhead)
      // (max-min)/mean of the per-sink totals; 0 is perfectly balanced.
      .add("energy_spread", res.sink_energy_spread())
      .add("sink_totals", sink_totals)
      .add("sink_queries", res.sink_queries);
  return row;
}

std::vector<std::size_t> parse_counts(const char* flag, const char* value,
                                      std::int64_t min) {
  return bench::parse_list(kTool, flag, value, [&](const std::string& s) {
    return static_cast<std::size_t>(bench::parse_count(kTool, flag, s, min));
  });
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> node_counts{500, 1000, 2000};
  std::vector<std::size_t> sink_counts{1, 2, 4, 8};
  std::vector<std::size_t> thread_counts{1};
  std::int64_t epochs = 2000;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--nodes" && next != nullptr) {
      node_counts = parse_counts("--nodes", next, 1);
      ++i;
    } else if (arg == "--sinks" && next != nullptr) {
      sink_counts = parse_counts("--sinks", next, 1);
      ++i;
    } else if (arg == "--threads" && next != nullptr) {
      // 0 is meaningful: all hardware threads (resolved into the row).
      thread_counts = parse_counts("--threads", next, 0);
      ++i;
    } else if (arg == "--epochs" && next != nullptr) {
      epochs = bench::parse_count(kTool, "--epochs", next);
      ++i;
    } else if (arg == "--json" && next != nullptr) {
      json_path = next;
      ++i;
    } else {
      std::cerr << "usage: bench_multi_sink [--nodes LIST] [--sinks LIST]"
                   " [--epochs N] [--threads LIST] [--json FILE]\n";
      return 2;
    }
  }

  dirq::bench::print_header(
      "E10 — multi-sink query plane: admission vs round-robin",
      "ROADMAP 'Multi-sink query plane'; fixed theta=5%, spread roots");

  std::vector<bench::Row> rows;
  for (std::size_t n : node_counts) {
    for (std::size_t s : sink_counts) {
      for (std::size_t th : thread_counts) {
        const auto threads = static_cast<unsigned>(th);
        if (s < 2) {
          rows.push_back(
              run_cell(n, epochs, s, core::RoutingPolicy::Admission, threads));
          continue;
        }
        for (const core::RoutingPolicy policy :
             {core::RoutingPolicy::Admission,
              core::RoutingPolicy::RoundRobin}) {
          rows.push_back(run_cell(n, epochs, s, policy, threads));
        }
      }
    }
  }

  bench::report(kTool, "multi-sink tier: overlay cost + energy balance",
                "dirq.msink.v1", rows, json_path);
  return 0;
}
