// The four benchmark workloads, their product entry-point runs, the
// digests of the byte-stable documents those runs write, and the output
// checks every run must pass.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "core/lmac_transport.hpp"
#include "core/lossy.hpp"
#include "serve/server.hpp"
#include "sim/scheduler.hpp"
#include "sweep/plan.hpp"
#include "sweep/runner.hpp"
#include "trace.hpp"

namespace perfbench {

enum class Kind { PaperGrid, Scale5000, MultisinkLmac, Serve };

struct Workload {
  std::string name;
  Kind kind = Kind::PaperGrid;
  std::uint64_t seed = 42;
  /// Engine threads (sweep workers on paper_grid): min(4, nproc).
  unsigned threads = 1;
};

/// nullopt for an unknown name.
std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed, unsigned threads);

/// The seed the pinned digests are recorded at.
inline constexpr std::uint64_t kPinnedSeed = 42;

// --- configurations ------------------------------------------------------

/// Worlds per run of a batch workload: an ensemble of 8 on scale_5000
/// (world k of seed s runs at seed 8s + k), 1 on multisink_lmac.
std::size_t batch_worlds(const Workload& w);
/// The batch config of world `world`, `threads` overriding w.threads.
dirq::core::ExperimentConfig batch_config(const Workload& w, unsigned threads,
                                          std::size_t world);
dirq::serve::ServeConfig serve_config(const Workload& w, unsigned threads);

/// Every ExperimentConfig whose world the workload builds (12 for the
/// grid, 8 for scale_5000, 1 otherwise).
std::vector<dirq::core::ExperimentConfig> world_configs(const Workload& w);

// --- the world --------------------------------------------------------------

/// What Experiment::run and Server::run build before their epoch loop, in
/// their order: placement, environment, sink roots, the network with its
/// bootstrap wave, the loss channel and LMAC stack when configured, and
/// the engine's worker pool.
struct World {
  dirq::net::Topology topo;
  std::unique_ptr<dirq::data::ReadingSource> env;
  std::vector<dirq::NodeId> roots;
  std::unique_ptr<dirq::core::DirqNetwork> network;
  std::optional<dirq::core::LossChannel> loss;
  std::optional<dirq::sim::Scheduler> sched;
  std::optional<dirq::mac::LmacNetwork> mac;
  std::optional<dirq::core::LmacTransport> lmac_transport;
  std::set<dirq::NodeId> mac_repaired;
  std::int64_t current_epoch = 0;
};

/// Builds the world for `cfg`; spans go to `tr` when given. `rng` is the
/// run's master generator (later substreams derive from it).
std::unique_ptr<World> build_world(const dirq::core::ExperimentConfig& cfg,
                                   dirq::sim::Rng& rng, Tracer* tr);

// --- product runs and checks -----------------------------------------------

/// One run of a workload through an entry point, product or replica.
struct RunOutcome {
  std::string digest;                 // FNV-1a 64 of the byte-stable document
  std::vector<std::string> failures;  // failed checks; empty when all hold
  double wall_s = 0.0;                // host time of the entry point
  double node_epochs = 0.0;           // sum over worlds of nodes x epochs
  std::int64_t answered = 0;          // queries answered
  std::int64_t arrived = 0;           // serve: arrivals offered
  std::int64_t failed_arrivals = 0;   // serve: shed + still queued
  std::vector<double> cell_wall_s;    // paper_grid: CellResult::wall_seconds
  /// paper_grid: ATC cost ratio per relevant fraction ("20%" -> 0.458).
  std::vector<std::pair<std::string, double>> atc_ratios;
};

/// Runs the workload through its product entry point with tracing off:
/// SweepRunner::run, Experiment::run or Server::run.
RunOutcome run_product(const Workload& w);

/// Fills the digest, work counts and checks of a finished grid / batch /
/// serve run (shared by the product and replica runs).
void finish_grid(const dirq::sweep::ExperimentPlan& plan,
                 const std::vector<dirq::sweep::CellResult>& cells,
                 RunOutcome& out);
void finish_batch(const dirq::core::ExperimentConfig& cfg,
                  const dirq::core::ExperimentResults& res, RunOutcome& out);
void finish_serve(const dirq::serve::ServeConfig& cfg,
                  const dirq::serve::ServeResults& res, RunOutcome& out);

/// Ledger reconciliation: the per-sink ledgers sum to the global ledger,
/// and the per-node tx/rx sum to its tx/rx totals.
void check_ledgers(const std::string& where, const dirq::core::CostLedger& global,
                   const std::vector<dirq::core::CostLedger>& sinks,
                   const std::vector<dirq::CostUnits>& node_tx,
                   const std::vector<dirq::CostUnits>& node_rx,
                   std::vector<std::string>& failures);

}  // namespace perfbench
