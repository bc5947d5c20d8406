#include "replica.hpp"

#include <chrono>
#include <optional>
#include <vector>

#include "core/admission.hpp"
#include "core/flooding.hpp"
#include "metrics/audit.hpp"
#include "query/rate_predictor.hpp"
#include "query/workload.hpp"
#include "serve/trace_gen.hpp"
#include "sim/rng.hpp"
#include "sweep/sink.hpp"

namespace perfbench {

namespace core = dirq::core;
namespace query = dirq::query;
namespace serve = dirq::serve;
namespace sweep = dirq::sweep;
using dirq::NodeId;
using dirq::SensorType;
using dirq::TreeId;

void LayerRun::merge(const LayerRun& o) {
  for (std::size_t i = 0; i < kSpanCount; ++i) spans[i].merge(o.spans[i]);
  readings_s += o.readings_s;
  readings_calls += o.readings_calls;
  readings_values += o.readings_values;
  readings_in_epoch_ns += o.readings_in_epoch_ns;
  links += o.links;
  samples += o.samples;
  samples_skipped += o.samples_skipped;
  updates += o.updates;
  update_units += o.update_units;
  query_units += o.query_units;
  control_units += o.control_units;
  cross_tree_units += o.cross_tree_units;
  loss_offered += o.loss_offered;
  loss_dropped += o.loss_dropped;
  mac_control_units += o.mac_control_units;
  mac_data_units += o.mac_data_units;
}

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

/// Reads the world's end-of-run counters and the tracer into `lr`.
void collect(const World& wd, const Tracer& tr, const ForwardingSource& fwd,
             LayerRun& lr) {
  const core::DirqNetwork& net = *wd.network;
  lr.spans = tr.table();
  lr.readings_s = fwd.busy_s();
  lr.readings_calls = fwd.calls();
  lr.readings_values = fwd.values();
  lr.links = static_cast<std::int64_t>(wd.topo.link_count());
  lr.samples = net.samples_taken();
  lr.samples_skipped = net.samples_skipped();
  lr.updates = net.updates_transmitted();
  const core::CostLedger& led = net.costs();
  lr.update_units = led.update_cost();
  lr.query_units = led.query_cost();
  lr.control_units = led.control_cost();
  for (TreeId t = 1; t < static_cast<TreeId>(net.tree_count()); ++t) {
    lr.cross_tree_units +=
        net.tree_ledger(t).update_cost() + net.tree_ledger(t).control_cost();
  }
  if (wd.loss) {
    lr.loss_offered = wd.loss->offered();
    lr.loss_dropped = wd.loss->dropped();
  }
  if (wd.mac) {
    for (NodeId u = 0; u < wd.topo.size(); ++u) {
      lr.mac_control_units += wd.mac->control_tx(u) + wd.mac->control_rx(u);
      lr.mac_data_units += wd.mac->data_tx(u) + wd.mac->data_rx(u);
    }
  }
}

/// Experiment::run, call for call, with spans.
core::ExperimentResults replay_experiment(core::ExperimentConfig cfg,
                                          LayerRun& lr) {
  cfg.validate();
  Tracer tr;
  dirq::sim::Rng rng(cfg.seed);
  const std::unique_ptr<World> world = build_world(cfg, rng, &tr);
  World& wd = *world;
  core::DirqNetwork& network = *wd.network;
  const dirq::data::ReadingSource& env = *wd.env;
  ForwardingSource fwd(*wd.env);
  const std::size_t n_sinks = network.tree_count();
  const bool use_lmac = cfg.transport == core::TransportKind::Lmac;

  query::WorkloadGenerator workload(
      wd.topo, network.tree(), env,
      query::WorkloadConfig{cfg.relevant_fraction, 0.02},
      rng.substream("workload"));
  std::vector<query::QueryRatePredictor> predictors;
  predictors.reserve(n_sinks);
  for (std::size_t t = 0; t < n_sinks; ++t) {
    predictors.emplace_back(0.4, cfg.epochs_per_hour);
  }
  core::QueryAdmission admission(cfg.routing, network.trees());
  std::optional<dirq::sim::Rng> multi_rng;
  if (cfg.multi_attr_fraction > 0.0) {
    multi_rng.emplace(rng.substream("multi-attr"));
  }
  core::FloodingScheme flooding(wd.topo);

  core::ExperimentResults res;
  res.sink_roots = wd.roots;
  res.sink_ledgers.resize(n_sinks);
  res.sink_queries.assign(n_sinks, 0);
  res.sink_query_latency.resize(n_sinks);
  res.sink_umax_per_hour.resize(n_sinks);
  res.updates_per_bin = dirq::sim::TimeSeries(cfg.series_bin);
  network.set_update_hook(
      [&res](std::int64_t epoch) { res.updates_per_bin.record(epoch); });

  struct PendingQuery {
    std::int64_t epoch = 0;
    TreeId tree = 0;
    SensorType type = 0;
    query::Involvement truth;
    std::size_t population = 0;
    dirq::CostUnits flooding_cost = 0;
  };
  std::optional<PendingQuery> pending;

  const auto finalize_query = [&](const PendingQuery& p,
                                  const core::QueryOutcome& outcome,
                                  std::int64_t answer_epoch) {
    const auto [audit, source_audit] = tr.span(Span::Audit, [&] {
      return std::pair{
          dirq::metrics::audit_query(p.truth.involved, outcome.received),
          dirq::metrics::audit_query(p.truth.sources,
                                     outcome.believed_sources)};
    });
    const auto pct = [&p](std::size_t n) {
      return p.population == 0 ? 0.0
                               : 100.0 * static_cast<double>(n) /
                                     static_cast<double>(p.population);
    };
    res.overshoot_pct.push(audit.overshoot_pct());
    res.should_pct.push(pct(audit.should_count));
    res.receive_pct.push(pct(audit.received_count));
    res.source_pct.push(pct(p.truth.sources.size()));
    res.wrong_pct.push(pct(audit.wrong));
    res.coverage_pct.push(audit.coverage_pct());
    res.source_overshoot_pct.push(source_audit.overshoot_pct());
    res.source_coverage_pct.push(source_audit.coverage_pct());
    res.flooding_total += p.flooding_cost;
    const std::int64_t latency = answer_epoch - p.epoch;
    res.query_latency_epochs.record(latency);
    res.sink_query_latency[p.tree].record(latency);
    ++res.queries;
    ++res.sink_queries[p.tree];
    admission.note_cost(p.tree, outcome.cost);
    if (cfg.keep_records) {
      core::QueryRecord rec;
      rec.epoch = p.epoch;
      rec.type = p.type;
      rec.audit = audit;
      rec.source_audit = source_audit;
      rec.dirq_query_cost = outcome.cost;
      rec.flooding_cost = p.flooding_cost;
      rec.sources = p.truth.sources.size();
      rec.population = p.population;
      rec.latency_epochs = latency;
      res.records.push_back(rec);
    }
  };

  const double prior_ehr = static_cast<double>(cfg.epochs_per_hour) /
                           static_cast<double>(cfg.query_period);
  const dirq::SimTime frame_ticks = cfg.lmac.frame_ticks();

  for (std::int64_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    wd.current_epoch = epoch;
    tr.span(Span::Advance, [&] { fwd.advance_to(epoch); });

    if (epoch % cfg.epochs_per_hour == 0) {
      for (TreeId t = 0; t < static_cast<TreeId>(n_sinks); ++t) {
        const double ehr = predictors[t].completed_hours() > 0
                               ? predictors[t].predict_next_hour()
                               : prior_ehr / static_cast<double>(n_sinks);
        const double umax = tr.span(
            Span::Ehr, [&] { return network.broadcast_ehr(t, ehr, epoch); });
        res.sink_umax_per_hour[t].push_back(umax);
        if (t == 0) {
          res.umax_per_hour.push_back(umax);
          res.ehr_per_hour.push_back(ehr);
        }
      }
    }

    tr.span(Span::Epoch, [&] { network.process_epoch(fwd, epoch); });
    lr.readings_in_epoch_ns +=
        fwd.take_covered_ns(tr.last().start_ns, tr.last().end_ns);

    if (epoch % cfg.query_period == 0 && epoch > 0) {
      if (pending) {
        const core::QueryOutcome outcome =
            tr.span(Span::Collect, [&] { return network.collect_outcome(); });
        finalize_query(*pending, outcome, epoch);
        pending.reset();
      }
      const bool in_burst =
          cfg.burst_length_epochs <= 0 ||
          epoch % (cfg.burst_length_epochs + cfg.burst_gap_epochs) <
              cfg.burst_length_epochs;
      if (in_burst) {
        const TreeId routed = tr.span(Span::Admission, [&] {
          for (TreeId t = 0; t < static_cast<TreeId>(n_sinks); ++t) {
            admission.sync_load(t, network.tree_ledger(t).total());
          }
          return admission.route();
        });
        const dirq::net::SpanningTree& sink_tree = network.tree(routed);
        predictors[routed].record_query(epoch);
        PendingQuery p;
        p.epoch = epoch;
        p.tree = routed;
        p.population = sink_tree.size() > 0 ? sink_tree.size() - 1 : 0;
        p.flooding_cost = flooding.analytical_cost();
        const bool is_multi =
            multi_rng && multi_rng->bernoulli(cfg.multi_attr_fraction);
        const auto dispatch = [&](const auto& q) {
          p.truth = tr.span(Span::Involvement, [&] {
            return query::compute_involvement(q, wd.topo, sink_tree, env);
          });
          if (use_lmac) {
            tr.span(Span::Inject,
                    [&] { network.inject_async(routed, q, epoch); });
            pending = std::move(p);
          } else {
            const core::QueryOutcome outcome = tr.span(
                Span::Inject, [&] { return network.inject(routed, q, epoch); });
            finalize_query(p, outcome, epoch);
          }
        };
        if (is_multi) {
          const query::MultiQuery q = tr.span(Span::QueryNext, [&] {
            return workload.next_multi(epoch, cfg.multi_attr_count);
          });
          p.type = q.predicates.empty() ? 0 : q.predicates.front().type;
          dispatch(q);
        } else {
          const query::RangeQuery q =
              tr.span(Span::QueryNext, [&] { return workload.next(epoch); });
          p.type = q.type;
          dispatch(q);
        }
      }
    }

    if (epoch % cfg.series_bin == 0) {
      res.theta_pct_series.push_back(
          network.mean_theta_pct(dirq::kSensorTemperature));
    }

    if (use_lmac) {
      tr.span(Span::MacDrain,
              [&] { wd.sched->run_until((epoch + 1) * frame_ticks - 1); });
    }
  }

  const auto mac_control_sum = [&] {
    dirq::CostUnits sum = 0;
    for (NodeId u = 0; u < wd.topo.size(); ++u) {
      sum += wd.mac->control_tx(u) + wd.mac->control_rx(u);
    }
    return sum;
  };
  if (use_lmac) res.mac_control_total = mac_control_sum();
  if (pending) {
    tr.span(Span::MacDrain, [&] {
      wd.sched->run_until((pending->epoch + cfg.query_period) * frame_ticks - 1);
    });
    const core::QueryOutcome outcome =
        tr.span(Span::Collect, [&] { return network.collect_outcome(); });
    finalize_query(*pending, outcome, pending->epoch + cfg.query_period);
    pending.reset();
  }
  if (use_lmac) res.mac_control_drain = mac_control_sum() - res.mac_control_total;

  res.ledger = network.costs();
  for (TreeId t = 0; t < static_cast<TreeId>(n_sinks); ++t) {
    res.sink_ledgers[t] = network.tree_ledger(t);
  }
  res.cross_tree_update_overhead = 0;
  for (TreeId t = 1; t < static_cast<TreeId>(n_sinks); ++t) {
    res.cross_tree_update_overhead += res.sink_ledgers[t].update_cost() +
                                      res.sink_ledgers[t].control_cost();
  }
  res.updates_transmitted = network.updates_transmitted();
  res.samples_taken = network.samples_taken();
  res.samples_skipped = network.samples_skipped();
  res.node_tx.resize(network.size());
  res.node_rx.resize(network.size());
  for (NodeId u = 0; u < network.size(); ++u) {
    res.node_tx[u] = network.node_tx(u);
    res.node_rx[u] = network.node_rx(u);
  }
  collect(wd, tr, fwd, lr);
  return res;
}

/// Server::run (synthetic stream, unpaced), call for call, with spans.
serve::ServeResults replay_serve(serve::ServeConfig cfg, LayerRun& lr) {
  cfg.validate();
  Tracer tr;
  dirq::sim::Rng rng(cfg.exp.seed);
  const std::unique_ptr<World> world = build_world(cfg.exp, rng, &tr);
  World& wd = *world;
  core::DirqNetwork& network = *wd.network;
  ForwardingSource fwd(*wd.env);
  const std::size_t n_sinks = network.tree_count();

  tr.span(Span::Advance, [&] { fwd.advance_to(0); });
  query::WorkloadGenerator workload(
      wd.topo, network.tree(), *wd.env,
      query::WorkloadConfig{cfg.exp.relevant_fraction, 0.02},
      rng.substream("workload"));
  serve::TraceGen trace(cfg.trace, workload, rng.substream("serve-trace"));
  core::QueryAdmission admission(cfg.exp.routing, network.trees());
  serve::FrontEnd front_end(cfg.front_end, network, admission);
  std::vector<query::QueryRatePredictor> predictors;
  predictors.reserve(n_sinks);
  for (std::size_t t = 0; t < n_sinks; ++t) {
    predictors.emplace_back(0.4, cfg.exp.epochs_per_hour);
  }
  front_end.set_on_injected([&predictors](TreeId tree, std::int64_t epoch) {
    predictors.at(tree).record_query(epoch);
  });
  const double prior_ehr =
      cfg.trace.rate * static_cast<double>(cfg.exp.epochs_per_hour);

  std::vector<serve::Arrival> arrivals;
  for (std::int64_t epoch = 0; epoch < cfg.duration_epochs; ++epoch) {
    tr.span(Span::Advance, [&] { fwd.advance_to(epoch); });
    if (epoch % cfg.exp.epochs_per_hour == 0) {
      for (TreeId t = 0; t < static_cast<TreeId>(n_sinks); ++t) {
        const double ehr = predictors[t].completed_hours() > 0
                               ? predictors[t].predict_next_hour()
                               : prior_ehr / static_cast<double>(n_sinks);
        tr.span(Span::Ehr, [&] { network.broadcast_ehr(t, ehr, epoch); });
      }
    }
    tr.span(Span::Epoch, [&] { network.process_epoch(fwd, epoch); });
    lr.readings_in_epoch_ns +=
        fwd.take_covered_ns(tr.last().start_ns, tr.last().end_ns);
    arrivals.clear();
    tr.span(Span::TraceDrain, [&] { trace.drain_until(epoch, arrivals); });
    lr.arrivals += static_cast<std::int64_t>(arrivals.size());
    for (const serve::Arrival& a : arrivals) {
      tr.span(Span::Offer, [&] { front_end.offer(a); });
    }
    if (epoch % cfg.front_end.inject_period == 0) {
      tr.span(Span::Boundary, [&] { front_end.on_boundary(epoch); });
    }
  }

  serve::ServeResults res;
  res.duration_epochs = cfg.duration_epochs;
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

  // The serve results carry no ledgers; reconcile them on the live network.
  std::vector<core::CostLedger> sinks;
  for (TreeId t = 0; t < static_cast<TreeId>(n_sinks); ++t) {
    sinks.push_back(network.tree_ledger(t));
  }
  std::vector<dirq::CostUnits> tx(network.size()), rx(network.size());
  for (NodeId u = 0; u < network.size(); ++u) {
    tx[u] = network.node_tx(u);
    rx[u] = network.node_rx(u);
  }
  check_ledgers("serve", network.costs(), sinks, tx, rx, lr.outcome.failures);
  lr.cache = res.cache;
  lr.totals = res.totals;
  collect(wd, tr, fwd, lr);
  return res;
}

}  // namespace

LayerRun run_replica(const Workload& w, unsigned threads) {
  LayerRun lr;
  const auto start = std::chrono::steady_clock::now();
  switch (w.kind) {
    case Kind::PaperGrid: {
      const sweep::ExperimentPlan plan = sweep::paper_grid(w.seed);
      std::vector<LayerRun> per_cell(plan.size());
      sweep::SweepOptions opts;
      opts.threads = threads;
      const std::vector<sweep::CellResult> cells = sweep::SweepRunner(opts).run(
          plan, [&per_cell](const sweep::PlanCell& cell) {
            return replay_experiment(cell.config, per_cell[cell.index]);
          });
      lr.outcome.wall_s = seconds_since(start);
      finish_grid(plan, cells, lr.outcome);
      for (const LayerRun& c : per_cell) lr.merge(c);
      break;
    }
    case Kind::Serve: {
      const serve::ServeConfig cfg = serve_config(w, threads);
      const serve::ServeResults res = replay_serve(cfg, lr);
      lr.outcome.wall_s = seconds_since(start);
      finish_serve(cfg, res, lr.outcome);
      break;
    }
    default: {
      for (std::size_t k = 0; k < batch_worlds(w); ++k) {
        const auto world_start = std::chrono::steady_clock::now();
        const core::ExperimentConfig cfg = batch_config(w, threads, k);
        LayerRun world;
        const core::ExperimentResults res = replay_experiment(cfg, world);
        lr.outcome.wall_s += seconds_since(world_start);
        finish_batch(cfg, res, lr.outcome);
        lr.merge(world);
      }
      break;
    }
  }
  return lr;
}

}  // namespace perfbench
