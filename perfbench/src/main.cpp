// dirq_perfbench: the DirQ benchmark binary.
//
//   dirq_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --pins FILE
//
// --trace 0 runs the workload through its product entry point for S
// seconds and reports the end-to-end metrics; --trace 1 alternates product
// runs with traced replicas for S seconds, replaying once at 1 thread
// after the first pair, and reports the per-layer metrics. Both check
// every simulated output and print one JSON result object as the last
// line of stdout. See README.md.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "replica.hpp"
#include "sweep/plan.hpp"
#include "sweep/sink.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string na;  // non-empty: not applicable to this workload, and why
};

struct Args {
  std::string workload;
  std::uint64_t seed = kPinnedSeed;
  double seconds = 10.0;
  int trace = 0;
  std::string pins;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "dirq_perfbench: " << why << "\n"
            << "usage: dirq_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --pins FILE\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string v = argv[++i];
    try {
      if (arg == "--workload") {
        a.workload = v;
      } else if (arg == "--seed") {
        a.seed = std::stoull(v);
      } else if (arg == "--seconds") {
        a.seconds = std::stod(v);
      } else if (arg == "--trace") {
        a.trace = std::stoi(v);
      } else if (arg == "--pins") {
        a.pins = v;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + v);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (a.pins.empty()) usage("--pins is required");
  if (!(a.seconds > 0.0)) usage("--seconds must be > 0");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  return a;
}

/// "name digest" lines; '#' starts a comment.
std::map<std::string, std::string> load_pins(const std::string& path) {
  std::ifstream in(path);
  if (!in) usage("cannot read pins file " + path);
  std::map<std::string, std::string> pins;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name, digest;
    if (ls >> name >> digest) pins[name] = digest;
  }
  return pins;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Checks one run's outputs beyond its own invariants: the pinned digest
/// at the pinned seed, and the digest every earlier run of this process
/// produced. Returns the failures, each also printed.
std::vector<std::string> check_run(const Workload& w, const RunOutcome& out,
                                   const std::map<std::string, std::string>& pins,
                                   std::string& expected, const char* what) {
  std::vector<std::string> failures = out.failures;
  if (w.seed == kPinnedSeed) {
    const auto it = pins.find(w.name);
    if (it == pins.end()) {
      failures.push_back("no pinned digest for " + w.name);
    } else if (out.digest != it->second) {
      failures.push_back("digest " + out.digest + " != pinned " + it->second);
    }
  }
  if (expected.empty()) {
    expected = out.digest;
  } else if (out.digest != expected) {
    failures.push_back("digest " + out.digest + " != " + expected +
                       " of the first run");
  }
  for (const std::string& f : failures) {
    std::cout << "FAILED " << what << ": " << f << "\n";
  }
  return failures;
}

struct Tally {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;

  /// One run is one operation; on serve each arrival is one more.
  void add(const RunOutcome& out, bool run_failed) {
    attempted += 1 + out.arrived;
    failed += (run_failed ? 1 : 0) + out.failed_arrivals;
  }
};

void print_result(const Tally& t, bool correct,
                  const std::vector<Metric>& metrics) {
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << t.attempted
            << ", \"failed\": " << t.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::cout << (i ? ", " : "") << "\"" << metrics[i].name
              << "\": {\"value\": " << dirq::sweep::format_double(v)
              << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

void print_table(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = ";
    if (m.na.empty()) {
      std::cout << dirq::sweep::format_double(m.value) << " " << m.unit;
    } else {
      std::cout << "n/a (" << m.na << ")";
    }
    std::cout << "\n";
  }
}

void print_accuracy(const Workload& w, const RunOutcome& out) {
  if (w.kind == Kind::PaperGrid) {
    std::cout << "accuracy: ATC cost ratio (DirQ / flooding)";
    for (const auto& [relevant, ratio] : out.atc_ratios) {
      std::cout << " " << relevant << "=" << dirq::sweep::format_double(
                                                 std::round(ratio * 1e3) / 1e3);
    }
    std::cout << "; paper band 0.45-0.55\n";
  }
  std::cout << "accuracy: every other simulated number is unvalidated (the "
               "repository holds no reference measurements)\n";
}

// --- untraced: end-to-end metrics --------------------------------------------

int run_untraced(const Workload& w, double seconds,
                 const std::map<std::string, std::string>& pins) {
  // Set-up: build every world of the workload at least 7 times and for at
  // least a second; report the median of the per-repetition sums.
  const std::vector<dirq::core::ExperimentConfig> worlds = world_configs(w);
  std::vector<double> setup;
  const Clock::time_point setup_start = Clock::now();
  while (setup.size() < 7 ||
         (since(setup_start) < 1.0 && setup.size() < 1000)) {
    double sum = 0.0;
    for (const dirq::core::ExperimentConfig& cfg : worlds) {
      dirq::sim::Rng rng(cfg.seed);
      const Clock::time_point t0 = Clock::now();
      std::unique_ptr<World> world = build_world(cfg, rng, nullptr);
      sum += since(t0);
    }
    setup.push_back(sum);
  }

  Tally tally;
  bool correct = true;
  std::string expected;
  std::vector<double> rate, answered;
  RunOutcome last;
  // Runs until --seconds would be exceeded by one more run of the length
  // of the last one, and at least 3 times.
  const Clock::time_point start = Clock::now();
  while (rate.size() < 3 || since(start) + last.wall_s < seconds) {
    RunOutcome out = run_product(w);
    std::cout << "run " << rate.size() + 1 << ": wall " << out.wall_s
              << " s\n";
    const bool bad = !check_run(w, out, pins, expected, "run").empty();
    correct = correct && !bad;
    tally.add(out, bad);
    rate.push_back(out.node_epochs / out.wall_s);
    answered.push_back(static_cast<double>(out.answered) / out.wall_s);
    last = std::move(out);
  }
  std::cout << "runs: " << rate.size() << ", digest " << last.digest << "\n";
  print_accuracy(w, last);

  const std::vector<Metric> metrics{
      {"setup_s", "s", median(setup), ""},
      {"node_epochs_per_s", "node-epoch/s", median(rate), ""},
      {"answered_per_s", "query/s", median(answered), ""},
      {"peak_rss_kib", "KiB", static_cast<double>(dirq::sweep::peak_rss_kib()),
       ""}};
  print_table(metrics);
  print_result(tally, correct, metrics);
  return 0;
}

// --- traced: per-layer metrics -----------------------------------------------

/// The per-layer metrics of one traced replica (par_speedup and
/// trace_overhead_pct are filled in by the caller).
std::vector<Metric> layer_metrics(const Workload& w, const LayerRun& r,
                                  const RunOutcome& product) {
  const auto sp = [&r](Span s) -> const SpanStats& {
    return r.spans[static_cast<std::size_t>(s)];
  };
  const bool lmac = w.kind == Kind::MultisinkLmac;  // also the lossy one
  const bool srv = w.kind == Kind::Serve;
  const bool grid = w.kind == Kind::PaperGrid;
  const auto na_if = [](bool cond, const char* why) {
    return cond ? std::string(why) : std::string();
  };
  const std::string mac_na = na_if(!lmac, "no LMAC transport in this workload");
  const std::string loss_na = na_if(!lmac, "lossless channel");
  const std::string serve_na = na_if(!srv, "not a serve workload");
  const std::string sweep_na = na_if(!grid, "not a sweep workload");
  const std::string fe_na = na_if(
      srv, "the serve front-end routes and injects inside FrontEnd::on_boundary");
  const std::string collect_na =
      na_if(!lmac, "the instant transport audits inside inject");
  const double epoch_s = sp(Span::Epoch).total_s;
  const double in_epoch_s = static_cast<double>(r.readings_in_epoch_ns) / 1e9;

  const std::vector<double>& cells = product.cell_wall_s;
  double cell_sum = 0.0, cell_max = 0.0;
  for (double c : cells) {
    cell_sum += c;
    cell_max = std::max(cell_max, c);
  }
  const dirq::sweep::SweepRunner runner(dirq::sweep::SweepOptions{w.threads, {}});
  const double workers = static_cast<double>(runner.thread_count(cells.size()));
  const double lookups = static_cast<double>(r.cache.lookups());

  return {
      {"net.build_s", "s", sp(Span::NetBuild).total_s, ""},
      {"net.links", "count", static_cast<double>(r.links), ""},
      {"data.env_build_s", "s", sp(Span::EnvBuild).total_s, ""},
      {"core.network_build_s", "s", sp(Span::NetworkBuild).total_s, ""},
      {"mac.build_s", "s", sp(Span::MacBuild).total_s, mac_na},
      {"data.advance_s", "s", sp(Span::Advance).total_s, ""},
      {"data.readings_s", "s", r.readings_s, ""},
      {"data.readings_calls", "count", static_cast<double>(r.readings_calls), ""},
      {"data.values", "count", static_cast<double>(r.readings_values), ""},
      {"core.epoch_s", "s", epoch_s, ""},
      {"core.epoch_calls", "count", static_cast<double>(sp(Span::Epoch).calls()), ""},
      {"core.epoch_p50_us", "us", sp(Span::Epoch).quantile_us(0.50), ""},
      {"core.epoch_p99_us", "us", sp(Span::Epoch).quantile_us(0.99), ""},
      {"core.ns_per_node_epoch", "ns", epoch_s * 1e9 / product.node_epochs, ""},
      {"core.par_speedup", "x", 0.0,
       na_if(grid, "grid cells run one engine thread each")},
      {"core.epoch_self_s", "s", epoch_s - in_epoch_s, ""},
      {"core.ehr_s", "s", sp(Span::Ehr).total_s, ""},
      {"core.ehr_calls", "count", static_cast<double>(sp(Span::Ehr).calls()), ""},
      {"core.inject_s", "s", sp(Span::Inject).total_s, fe_na},
      {"core.inject_calls", "count", static_cast<double>(sp(Span::Inject).calls()), fe_na},
      {"core.inject_p50_us", "us", sp(Span::Inject).quantile_us(0.50), fe_na},
      {"core.inject_p99_us", "us", sp(Span::Inject).quantile_us(0.99), fe_na},
      {"core.collect_s", "s", sp(Span::Collect).total_s, collect_na},
      {"core.admission_s", "s", sp(Span::Admission).total_s, fe_na},
      {"core.samples", "count", static_cast<double>(r.samples), ""},
      {"core.samples_skipped", "count", static_cast<double>(r.samples_skipped), ""},
      {"core.updates", "count", static_cast<double>(r.updates), ""},
      {"core.update_units", "units", static_cast<double>(r.update_units), ""},
      {"core.query_units", "units", static_cast<double>(r.query_units), ""},
      {"core.control_units", "units", static_cast<double>(r.control_units), ""},
      {"core.cross_tree_units", "units", static_cast<double>(r.cross_tree_units), ""},
      {"core.loss_offered", "count", static_cast<double>(r.loss_offered), loss_na},
      {"core.loss_dropped", "count", static_cast<double>(r.loss_dropped), loss_na},
      {"core.loss_kept_ratio", "ratio",
       r.loss_offered > 0 ? 1.0 - static_cast<double>(r.loss_dropped) /
                                      static_cast<double>(r.loss_offered)
                          : 0.0,
       loss_na},
      {"query.next_s", "s", sp(Span::QueryNext).total_s, fe_na},
      {"query.involvement_s", "s", sp(Span::Involvement).total_s, fe_na},
      {"query.involvement_calls", "count",
       static_cast<double>(sp(Span::Involvement).calls()), fe_na},
      {"metrics.audit_s", "s", sp(Span::Audit).total_s, fe_na},
      {"mac.drain_s", "s", sp(Span::MacDrain).total_s, mac_na},
      {"mac.frame_calls", "count", static_cast<double>(sp(Span::MacDrain).calls()), mac_na},
      {"mac.frame_p50_us", "us", sp(Span::MacDrain).quantile_us(0.50), mac_na},
      {"mac.frame_p99_us", "us", sp(Span::MacDrain).quantile_us(0.99), mac_na},
      {"mac.control_units", "units", static_cast<double>(r.mac_control_units), mac_na},
      {"mac.data_units", "units", static_cast<double>(r.mac_data_units), mac_na},
      {"serve.trace_s", "s", sp(Span::TraceDrain).total_s, serve_na},
      {"serve.arrivals", "count", static_cast<double>(r.arrivals), serve_na},
      {"serve.offer_s", "s", sp(Span::Offer).total_s, serve_na},
      {"serve.boundary_s", "s", sp(Span::Boundary).total_s, serve_na},
      {"serve.boundary_calls", "count", static_cast<double>(sp(Span::Boundary).calls()), serve_na},
      {"serve.boundary_p50_us", "us", sp(Span::Boundary).quantile_us(0.50), serve_na},
      {"serve.boundary_p99_us", "us", sp(Span::Boundary).quantile_us(0.99), serve_na},
      {"serve.cache_hit_ratio", "ratio",
       lookups > 0 ? static_cast<double>(r.cache.hits()) / lookups : 0.0, serve_na},
      {"serve.containment_hits", "count", static_cast<double>(r.cache.containment_hits), serve_na},
      {"serve.expired", "count", static_cast<double>(r.cache.expired), serve_na},
      {"serve.evictions", "count", static_cast<double>(r.cache.evictions), serve_na},
      {"serve.injected", "count", static_cast<double>(r.totals.injected), serve_na},
      {"serve.peak_queue_depth", "count", static_cast<double>(r.totals.peak_queue_depth), serve_na},
      {"sweep.cell_p50_s", "s", median(cells), sweep_na},
      {"sweep.cell_max_s", "s", cell_max, sweep_na},
      {"sweep.pool_efficiency", "ratio",
       grid && product.wall_s > 0.0 ? cell_sum / (workers * product.wall_s) : 0.0,
       sweep_na},
      {"bench.trace_overhead_pct", "%", 0.0, ""},
  };
}

Metric& find(std::vector<Metric>& ms, const std::string& name) {
  for (Metric& m : ms) {
    if (m.name == name) return m;
  }
  throw std::logic_error("no metric " + name);
}

int run_traced(const Workload& w, double seconds,
               const std::map<std::string, std::string>& pins) {
  Tally tally;
  bool correct = true;
  std::string expected;
  std::vector<std::vector<Metric>> samples;
  std::vector<double> untraced_rate, traced_rate;
  const auto account = [&](const RunOutcome& out, const char* what) {
    const bool bad = !check_run(w, out, pins, expected, what).empty();
    correct = correct && !bad;
    tally.add(out, bad);
  };

  // The 1-thread replay checks the --threads N == --threads 1 contract and
  // is the base of par_speedup. It runs after the first iteration, inside
  // the --seconds budget.
  std::optional<LayerRun> one;
  double pair_s = 0.0;  // length of the last product + replica pair
  const Clock::time_point start = Clock::now();
  do {
    const Clock::time_point pair_start = Clock::now();
    const RunOutcome product = run_product(w);
    account(product, "product run");
    const LayerRun replica = run_replica(w, w.threads);
    // check_run compares the replica's digest with the product's: replica
    // fidelity is a failed operation, never a warning.
    account(replica.outcome, "traced replica");
    untraced_rate.push_back(product.node_epochs / product.wall_s);
    traced_rate.push_back(replica.outcome.node_epochs / replica.outcome.wall_s);
    samples.push_back(layer_metrics(w, replica, product));
    pair_s = since(pair_start);
    if (!one) {
      print_accuracy(w, product);
      one = run_replica(w, 1);
      account(one->outcome, "1-thread replica");
    }
  } while (since(start) + pair_s < seconds);

  std::vector<Metric> metrics = samples.front();
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::vector<double> vs;
    for (const std::vector<Metric>& s : samples) vs.push_back(s[i].value);
    metrics[i].value = median(vs);
  }
  Metric& speedup = find(metrics, "core.par_speedup");
  if (speedup.na.empty()) {
    speedup.value = one->spans[static_cast<std::size_t>(Span::Epoch)].total_s /
                    find(metrics, "core.epoch_s").value;
  }
  const double untraced = median(untraced_rate);
  find(metrics, "bench.trace_overhead_pct").value =
      100.0 * (untraced - median(traced_rate)) / untraced;
  std::cout << "traced iterations: " << samples.size() << ", digest "
            << expected << "\n";
  print_table(metrics);
  print_result(tally, correct, metrics);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args args = parse(argc, argv);
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release") {
    std::cerr << "dirq_perfbench: refusing to run a " << build_type
              << " build; configure with -DCMAKE_BUILD_TYPE=Release\n";
    return 3;
  }
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned threads = std::min(4u, hw);
  const std::optional<Workload> w = make_workload(args.workload, args.seed, threads);
  if (!w) usage("unknown workload " + args.workload);
  const std::map<std::string, std::string> pins = load_pins(args.pins);
  std::cout << "host: nproc=" << hw << " compiler=" << PERFBENCH_COMPILER
            << " build=" << build_type << " threads=" << threads
            << " seed=" << args.seed << " workload=" << w->name
            << " mode=" << (args.trace ? "traced" : "untraced") << "\n";
  try {
    return args.trace ? run_traced(*w, args.seconds, pins)
                      : run_untraced(*w, args.seconds, pins);
  } catch (const std::exception& e) {
    std::cerr << "dirq_perfbench: " << e.what() << "\n";
    return 1;
  }
}
