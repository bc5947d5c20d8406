// E9 — large-topology tier: epoch throughput and peak RSS as the network
// grows from the paper's 50 nodes toward production scale (ROADMAP "Larger
// topologies"). Not a paper figure; the scaling ledger behind the spatial
// index + flat hot-path refactor.
//
//   bench_scale_topology [--nodes LIST] [--epochs N] [--json FILE]
//                        [--field pinned|fast|both] [--threads LIST]
//                        [--loss LIST] [--no-burst]
//
// For each node count: placement/topology build wall-clock (grid-indexed
// link construction), a full fixed-theta experiment run, epoch throughput,
// and process peak RSS. getrusage's peak is a process-lifetime high-water
// mark, so the RSS column is monotone across rows ("peak so far"): a
// row's own footprint is only attributable when it is the largest cell
// run up to that point (run cells ascending, or one cell per invocation,
// as tools/record_baseline.sh does for the 500-node baseline). One extra row runs the 500-node cell with bursty
// query arrivals (burst 200 epochs / gap 600) so the rate predictor's
// behaviour under non-smooth load is part of the tracked surface.
#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "data/fast_field.hpp"
#include "net/placement.hpp"
#include "sim/rng.hpp"

namespace {

using namespace dirq;
using Clock = std::chrono::steady_clock;

constexpr const char* kTool = "bench_scale_topology";

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

core::ExperimentConfig scale_config(std::size_t nodes, std::int64_t epochs) {
  core::ExperimentConfig cfg;
  cfg.seed = 42;
  cfg.placement = net::scaled_placement(nodes);
  cfg.epochs = epochs;
  cfg.network.mode = core::NetworkConfig::ThetaMode::Fixed;
  cfg.network.fixed_pct = 5.0;
  cfg.keep_records = false;
  return cfg;
}

bench::Row run_cell(std::size_t nodes, std::int64_t epochs,
                    std::int64_t burst_length, std::int64_t burst_gap,
                    data::EnvironmentBackend field, unsigned threads,
                    double loss) {
  core::ExperimentConfig cfg = scale_config(nodes, epochs);
  cfg.burst_length_epochs = burst_length;
  cfg.burst_gap_epochs = burst_gap;
  cfg.field_backend = field;
  cfg.threads = threads;
  cfg.loss_rate = loss;
  const std::string workload =
      burst_length > 0 ? "burst " + std::to_string(burst_length) + "/" +
                             std::to_string(burst_gap)
                       : "smooth";

  double build_seconds = 0.0;
  {
    // Topology construction cost in isolation (placement + link build).
    sim::Rng rng(cfg.seed);
    const auto start = Clock::now();
    const net::Topology topo = net::random_connected(cfg.placement, rng);
    build_seconds = seconds_since(start);
    (void)topo;
  }

  const auto start = Clock::now();
  const core::ExperimentResults res = core::Experiment(cfg).run();
  const double run_seconds = seconds_since(start);
  const unsigned effective = core::Experiment::effective_threads(cfg);
  std::cerr << "  " << nodes << " nodes (" << workload << ", "
            << data::backend_name(field) << ", " << effective
            << " thread(s), loss " << metrics::fmt(loss, 2) << ") done ("
            << metrics::fmt(run_seconds) << " s)\n";

  bench::Row row;
  row.add("nodes", nodes)
      .add("epochs", epochs)
      .add("workload", workload)
      .add("field", data::backend_name(field))
      .add("threads", effective)
      .add("loss", loss)
      .add("build_seconds", build_seconds)
      .add("run_seconds", run_seconds)
      .add("epochs_per_sec",
           run_seconds > 0.0 ? static_cast<double>(epochs) / run_seconds : 0.0)
      .add("updates", res.updates_transmitted)
      // Process high-water mark, monotone across rows.
      .add("peak_rss_so_far_kib", sweep::peak_rss_kib());
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::size_t> node_counts{50, 500, 1000, 2000};
  std::int64_t epochs = 2000;
  std::string json_path;
  std::vector<data::EnvironmentBackend> fields{
      data::EnvironmentBackend::Pinned, data::EnvironmentBackend::Fast};
  std::vector<unsigned> thread_counts{1};
  std::vector<double> loss_rates{0.0};
  bool burst_rows = true;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--nodes" && next != nullptr) {
      node_counts = bench::parse_list(
          kTool, "--nodes", next, [](const std::string& s) {
            return static_cast<std::size_t>(
                bench::parse_count(kTool, "--nodes", s));
          });
      ++i;
    } else if (arg == "--epochs" && next != nullptr) {
      epochs = bench::parse_count(kTool, "--epochs", next);
      ++i;
    } else if (arg == "--json" && next != nullptr) {
      json_path = next;
      ++i;
    } else if (arg == "--field" && next != nullptr) {
      const std::string f = next;
      if (f == "pinned") {
        fields = {data::EnvironmentBackend::Pinned};
      } else if (f == "fast") {
        fields = {data::EnvironmentBackend::Fast};
      } else if (f == "both") {
        fields = {data::EnvironmentBackend::Pinned,
                  data::EnvironmentBackend::Fast};
      } else {
        std::cerr << kTool << ": --field expects pinned, fast or"
                     " both, got: '" << f << "'\n";
        return 2;
      }
      ++i;
    } else if (arg == "--threads" && next != nullptr) {
      // List-valued like --nodes: each count is a full extra pass over the
      // grid (0 = all hardware threads; 1 = the sequential golden path).
      thread_counts = bench::parse_list(
          kTool, "--threads", next, [](const std::string& s) {
            return static_cast<unsigned>(
                bench::parse_count(kTool, "--threads", s, /*min=*/0));
          });
      ++i;
    } else if (arg == "--loss" && next != nullptr) {
      // Channel drop probabilities, list-valued like --nodes. Each rate is
      // an extra pass over the grid; non-zero rates exercise the
      // counter-keyed loss channel on the parallel epoch engine, so the
      // lossy cells are the ones the lossy perf guard reads.
      loss_rates = bench::parse_list(
          kTool, "--loss", next, [](const std::string& s) {
            return bench::parse_real(
                kTool, "--loss", s, "rates in [0, 1)",
                [](double r) { return r >= 0.0 && r < 1.0; });
          });
      ++i;
    } else if (arg == "--no-burst") {
      // Skip the bursty-arrival rows: the perf-smoke guards only read the
      // smooth cells, so CI need not pay for rows it ignores.
      burst_rows = false;
    } else {
      std::cerr << "usage: bench_scale_topology [--nodes LIST] [--epochs N]"
                   " [--json FILE] [--field pinned|fast|both]"
                   " [--threads LIST] [--loss LIST] [--no-burst]\n";
      return 2;
    }
  }

  dirq::bench::print_header(
      "E9 — large-topology scaling: epoch throughput + peak RSS",
      "ROADMAP 'Larger topologies'; fixed theta=5%, scaled placement");

  std::vector<bench::Row> rows;
  for (std::size_t n : node_counts) {
    for (data::EnvironmentBackend f : fields) {
      for (unsigned t : thread_counts) {
        for (double l : loss_rates) {
          rows.push_back(run_cell(n, epochs, 0, 0, f, t, l));
        }
      }
    }
  }
  // Bursty-arrival row (ROADMAP "bursty/diurnal"): same 500-node cell, the
  // query stream gated to 200-epoch bursts separated by 600 silent epochs.
  // Always sequential: the row tracks the rate predictor, not the pool.
  if (burst_rows) {
    for (data::EnvironmentBackend f : fields) {
      rows.push_back(run_cell(500, epochs, 200, 600, f, 1, 0.0));
    }
  }

  bench::report(kTool, "scale tier: epoch throughput", "dirq.scale.v1", rows,
                json_path);
  return 0;
}
