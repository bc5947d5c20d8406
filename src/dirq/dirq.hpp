// Umbrella public header for the DirQ library.
//
// Quick tour (see README.md for a worked example):
//
//   sim::Rng / sim::Scheduler      — deterministic simulation substrate
//   net::random_connected(...)     — build the 50-node paper topology
//   data::Environment              — synthetic spatio-temporal sensor data
//   query::WorkloadGenerator       — paper §7 range-query stream
//   core::DirqNetwork              — the DirQ protocol instance
//   core::Experiment               — the full §7 evaluation loop
//   core::FloodingScheme           — the baseline
//   analysis::*                    — Section-5 closed-form cost model
//   metrics::audit_query           — accuracy / overshoot accounting
//   sweep::ExperimentPlan          — declarative evaluation grids
//   sweep::SweepRunner             — parallel plan execution
//   sweep::ResultSink              — console / TSV / JSON reporting
//   serve::Server                  — long-lived query front-end (dirqsim serve)
//   serve::TraceGen                — open-loop arrival streams
//   serve::ResultCache             — containment-aware range-result cache
#pragma once

#include "analysis/cost_model.hpp"
#include "core/atc.hpp"
#include "core/dirq_node.hpp"
#include "core/experiment.hpp"
#include "core/flooding.hpp"
#include "core/lmac_transport.hpp"
#include "core/lossy.hpp"
#include "core/messages.hpp"
#include "core/network.hpp"
#include "core/range_table.hpp"
#include "core/sampling.hpp"
#include "core/session.hpp"
#include "core/srt.hpp"
#include "core/transport.hpp"
#include "data/fast_field.hpp"
#include "data/field_model.hpp"
#include "data/reading_source.hpp"
#include "data/trace.hpp"
#include "mac/lmac.hpp"
#include "metrics/audit.hpp"
#include "metrics/histogram.hpp"
#include "metrics/report.hpp"
#include "net/bbox.hpp"
#include "net/placement.hpp"
#include "net/spanning_tree.hpp"
#include "net/topology.hpp"
#include "query/query.hpp"
#include "query/rate_predictor.hpp"
#include "query/workload.hpp"
#include "serve/cache.hpp"
#include "serve/front_end.hpp"
#include "serve/server.hpp"
#include "serve/trace_gen.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"
#include "sweep/plan.hpp"
#include "sweep/runner.hpp"
#include "sweep/sink.hpp"
