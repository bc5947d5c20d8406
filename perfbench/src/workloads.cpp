#include "workloads.hpp"

#include <chrono>
#include <cstdio>
#include <sstream>

#include "data/fast_field.hpp"
#include "metrics/report.hpp"
#include "net/placement.hpp"
#include "net/tree_set.hpp"
#include "sim/counter_rng.hpp"
#include "sim/rng.hpp"
#include "sweep/sink.hpp"

namespace perfbench {

namespace core = dirq::core;
namespace serve = dirq::serve;
namespace sweep = dirq::sweep;

namespace {

// Run lengths, sized so one run of each workload takes a few seconds on a
// 4-core host. scale_5000 runs an ensemble of worlds because its subtree
// shard balance, and with it the throughput, varies by +-15 % from one
// topology to the next; eight topologies per run average that out.
constexpr std::size_t kScaleWorlds = 8;
constexpr std::int64_t kScaleEpochs = 500;
constexpr std::int64_t kMultisinkEpochs = 1500;
constexpr std::int64_t kServeEpochs = 4000;
// serve's arrivals stop this many epochs before shutdown so the front-end
// drains its queue: an arrival still queued at shutdown is a failed
// operation, and with arrivals up to the end about 3 % of seeds leave 4-9
// queued (the deepest backlog seen in 60 seeds was 106, 27 boundaries).
constexpr std::int64_t kServeDrainEpochs = 100;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

std::string hex_digest(const std::string& document) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(dirq::sim::fnv1a(document)));
  return buf;
}

std::string sweep_document(const sweep::ExperimentPlan& plan,
                           const std::vector<sweep::CellResult>& cells) {
  const sweep::SweepHeader header{
      "perfbench paper_grid",
      plan.name(),
      {"theta", "relevant", "dirq_total", "flood_total", "ratio",
       "overshoot_%", "coverage_%", "updates"}};
  const sweep::RowMapper mapper = [](const sweep::CellResult& r) {
    const core::ExperimentResults& res = r.results;
    return std::vector<std::string>{
        *r.cell.coordinate("theta"),
        *r.cell.coordinate("relevant"),
        std::to_string(res.ledger.total()),
        std::to_string(res.flooding_total),
        dirq::metrics::fmt(res.cost_ratio(), 3),
        dirq::metrics::fmt(res.overshoot_pct.mean()),
        dirq::metrics::fmt(res.coverage_pct.mean()),
        std::to_string(res.updates_transmitted)};
  };
  std::ostringstream os;
  sweep::JsonSink json(os, /*include_timing=*/false);
  sweep::report(header, cells, mapper, {&json});
  return os.str();
}

}  // namespace

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed, unsigned threads) {
  static const std::pair<const char*, Kind> kinds[] = {
      {"paper_grid", Kind::PaperGrid},
      {"scale_5000", Kind::Scale5000},
      {"multisink_lmac", Kind::MultisinkLmac},
      {"serve", Kind::Serve}};
  for (const auto& [n, kind] : kinds) {
    if (name == n) return Workload{name, kind, seed, threads};
  }
  return std::nullopt;
}

std::size_t batch_worlds(const Workload& w) {
  return w.kind == Kind::Scale5000 ? kScaleWorlds : 1;
}

core::ExperimentConfig batch_config(const Workload& w, unsigned threads,
                                    std::size_t world) {
  core::ExperimentConfig cfg;
  cfg.seed = w.seed * batch_worlds(w) + world;
  cfg.field_backend = dirq::data::EnvironmentBackend::Fast;
  cfg.threads = threads;
  if (w.kind == Kind::Scale5000) {
    cfg.placement = dirq::net::scaled_placement(5000, cfg.placement);
    cfg.epochs = kScaleEpochs;
    cfg.network.mode = core::NetworkConfig::ThetaMode::Fixed;
    cfg.network.fixed_pct = 5.0;
  } else {
    cfg.placement = dirq::net::scaled_placement(1000, cfg.placement);
    cfg.epochs = kMultisinkEpochs;
    cfg.sink_count = 4;
    cfg.routing = core::RoutingPolicy::Admission;
    cfg.network.mode = core::NetworkConfig::ThetaMode::Atc;
    cfg.transport = core::TransportKind::Lmac;
    // The default 32-slot frame cannot schedule the 2-hop neighbourhoods of
    // about 5 % of 1000-node topologies (mac::elect_slots throws); 64 slots
    // of 16 ticks keep one frame per epoch and scheduled every one of
    // 10 000 seeds tried.
    cfg.lmac.slots_per_frame = 64;
    cfg.lmac.ticks_per_slot = 16;
    cfg.loss_rate = 0.15;
  }
  return cfg;
}

serve::ServeConfig serve_config(const Workload& w, unsigned threads) {
  serve::ServeConfig cfg;
  cfg.exp.seed = w.seed;
  cfg.exp.placement = dirq::net::scaled_placement(500, cfg.exp.placement);
  cfg.exp.sink_count = 4;
  cfg.exp.network.mode = core::NetworkConfig::ThetaMode::Atc;
  cfg.exp.field_backend = dirq::data::EnvironmentBackend::Fast;
  cfg.exp.keep_records = false;
  cfg.exp.threads = threads;
  cfg.duration_epochs = kServeEpochs;
  cfg.trace.rate = 20.0;
  cfg.trace.shape = serve::ArrivalShape::Burst;
  cfg.trace.burst_length_epochs = kServeEpochs - kServeDrainEpochs;
  cfg.trace.burst_gap_epochs = kServeDrainEpochs;
  cfg.trace.multi_attr_fraction = 0.1;
  return cfg;
}

std::vector<core::ExperimentConfig> world_configs(const Workload& w) {
  switch (w.kind) {
    case Kind::PaperGrid: {
      std::vector<core::ExperimentConfig> out;
      for (const sweep::PlanCell& c : sweep::paper_grid(w.seed).cells()) {
        out.push_back(c.config);
      }
      return out;
    }
    case Kind::Serve:
      return {serve_config(w, w.threads).exp};
    default: {
      std::vector<core::ExperimentConfig> out;
      for (std::size_t k = 0; k < batch_worlds(w); ++k) {
        out.push_back(batch_config(w, w.threads, k));
      }
      return out;
    }
  }
}

std::unique_ptr<World> build_world(const core::ExperimentConfig& cfg,
                                   dirq::sim::Rng& rng, Tracer* tr) {
  auto world = std::make_unique<World>();
  World& wd = *world;
  maybe_span(tr, Span::NetBuild, [&] {
    wd.topo = dirq::net::random_connected(cfg.placement, rng);
    if (!cfg.sinks.empty()) {
      wd.roots = cfg.sinks;
    } else if (cfg.sink_count <= 1) {
      wd.roots = {0};
    } else {
      wd.roots = dirq::net::spread_roots(wd.topo, cfg.sink_count);
    }
  });
  maybe_span(tr, Span::EnvBuild, [&] {
    wd.env = dirq::data::make_environment(cfg.field_backend, wd.topo,
                                          cfg.placement.sensor_type_count,
                                          rng.substream("environment"));
  });
  maybe_span(tr, Span::NetworkBuild, [&] {
    wd.network =
        std::make_unique<core::DirqNetwork>(wd.topo, wd.roots, cfg.network);
  });
  if (cfg.loss_rate > 0.0) {
    wd.loss.emplace(cfg.loss_rate,
                    dirq::sim::CounterRng(cfg.seed).substream("loss"));
    wd.network->set_loss(&*wd.loss);
  }
  if (cfg.transport == core::TransportKind::Lmac) {
    maybe_span(tr, Span::MacBuild, [&] {
      wd.sched.emplace();
      wd.mac.emplace(*wd.sched, wd.topo, cfg.lmac);
      wd.lmac_transport.emplace(*wd.mac, *wd.network);
      wd.lmac_transport->mutable_costs() = wd.network->costs();
      wd.network->use_transport(*wd.lmac_transport);
      core::DirqNetwork& net = *wd.network;
      wd.lmac_transport->set_on_neighbor_lost(
          [&net, &wd](dirq::NodeId, dirq::NodeId dead) {
            if (wd.mac_repaired.insert(dead).second) {
              net.handle_node_death(dead, wd.current_epoch);
            }
          });
      wd.mac->start();
    });
  }
  const unsigned threads = core::Experiment::effective_threads(cfg);
  if (threads > 1) {
    maybe_span(tr, Span::NetworkBuild,
               [&] { wd.network->set_threads(threads); });
  }
  return world;
}

// --- checks ---------------------------------------------------------------------

void check_ledgers(const std::string& where, const core::CostLedger& global,
                   const std::vector<core::CostLedger>& sinks,
                   const std::vector<dirq::CostUnits>& node_tx,
                   const std::vector<dirq::CostUnits>& node_rx,
                   std::vector<std::string>& failures) {
  core::CostLedger sum;
  for (const core::CostLedger& l : sinks) {
    sum.query_tx += l.query_tx;
    sum.query_rx += l.query_rx;
    sum.update_tx += l.update_tx;
    sum.update_rx += l.update_rx;
    sum.control_tx += l.control_tx;
    sum.control_rx += l.control_rx;
  }
  if (sum.query_tx != global.query_tx || sum.query_rx != global.query_rx ||
      sum.update_tx != global.update_tx || sum.update_rx != global.update_rx ||
      sum.control_tx != global.control_tx ||
      sum.control_rx != global.control_rx) {
    failures.push_back(where + ": sink ledgers do not sum to the global ledger");
  }
  dirq::CostUnits tx = 0, rx = 0;
  for (dirq::CostUnits v : node_tx) tx += v;
  for (dirq::CostUnits v : node_rx) rx += v;
  if (tx != global.query_tx + global.update_tx + global.control_tx) {
    failures.push_back(where + ": sum(node_tx) != ledger tx");
  }
  if (rx != global.query_rx + global.update_rx + global.control_rx) {
    failures.push_back(where + ": sum(node_rx) != ledger rx");
  }
}

void finish_batch(const core::ExperimentConfig& cfg,
                  const core::ExperimentResults& res, RunOutcome& out) {
  // Chained over an ensemble's worlds; a single world's digest is that of
  // its summary.
  out.digest = hex_digest(out.digest + sweep::summarize(res));
  out.node_epochs += static_cast<double>(cfg.placement.node_count) *
                     static_cast<double>(cfg.epochs);
  out.answered += res.queries;
  check_ledgers("batch", res.ledger, res.sink_ledgers, res.node_tx,
                res.node_rx, out.failures);
}

void finish_grid(const sweep::ExperimentPlan& plan,
                 const std::vector<sweep::CellResult>& cells,
                 RunOutcome& out) {
  out.digest = hex_digest(sweep_document(plan, cells));
  for (const sweep::CellResult& c : cells) {
    out.cell_wall_s.push_back(c.wall_seconds);
    if (!c.ok()) {
      out.failures.push_back(c.cell.label + ": " + c.error);
      continue;
    }
    const core::ExperimentConfig& cfg = c.cell.config;
    out.node_epochs += static_cast<double>(cfg.placement.node_count) *
                       static_cast<double>(cfg.epochs);
    out.answered += c.results.queries;
    check_ledgers(c.cell.label, c.results.ledger, c.results.sink_ledgers,
                  c.results.node_tx, c.results.node_rx, out.failures);
    if (*c.cell.coordinate("theta") == "ATC") {
      out.atc_ratios.emplace_back(*c.cell.coordinate("relevant"),
                                  c.results.cost_ratio());
    }
  }
}

void finish_serve(const serve::ServeConfig& cfg, const serve::ServeResults& res,
                  RunOutcome& out) {
  std::ostringstream os;
  serve::write_serve_json(cfg, res, os);
  out.digest = hex_digest(os.str());
  out.node_epochs += static_cast<double>(cfg.exp.placement.node_count) *
                     static_cast<double>(cfg.duration_epochs);
  out.answered += res.totals.answered;
  out.arrived += res.totals.arrived;
  out.failed_arrivals += res.totals.shed + res.final_queue_depth;
  if (res.totals.arrived !=
      res.totals.answered + res.totals.shed + res.final_queue_depth) {
    out.failures.push_back("serve: arrived != answered + shed + queued");
  }
}

RunOutcome run_product(const Workload& w) {
  RunOutcome out;
  const auto start = std::chrono::steady_clock::now();
  switch (w.kind) {
    case Kind::PaperGrid: {
      const sweep::ExperimentPlan plan = sweep::paper_grid(w.seed);
      sweep::SweepOptions opts;
      opts.threads = w.threads;
      const std::vector<sweep::CellResult> cells =
          sweep::SweepRunner(opts).run(plan);
      out.wall_s = seconds_since(start);
      finish_grid(plan, cells, out);
      break;
    }
    case Kind::Serve: {
      const serve::ServeConfig cfg = serve_config(w, w.threads);
      const serve::ServeResults res = serve::Server(cfg).run();
      out.wall_s = seconds_since(start);
      finish_serve(cfg, res, out);
      break;
    }
    default: {
      for (std::size_t k = 0; k < batch_worlds(w); ++k) {
        const auto world_start = std::chrono::steady_clock::now();
        const core::ExperimentConfig cfg = batch_config(w, w.threads, k);
        const core::ExperimentResults res = core::Experiment(cfg).run();
        out.wall_s += seconds_since(world_start);
        finish_batch(cfg, res, out);
      }
      break;
    }
  }
  return out;
}

}  // namespace perfbench
