// A lossy run and an LMAC run at N threads must produce byte-identical
// ExperimentResults to the same run at --threads 1, on every transport and
// at every sink count. The one-thread run is the specification; the
// two-phase epoch engine's parallel sensing phase must be observationally
// invisible.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "core/experiment.hpp"
#include "support/ledger_parity.hpp"
#include "sweep/sink.hpp"

namespace dirq::core {
namespace {

ExperimentConfig base_config(std::size_t sinks, double loss,
                             TransportKind transport) {
  ExperimentConfig cfg;
  cfg.seed = 42;
  cfg.epochs = 600;
  cfg.query_period = 20;
  cfg.network.mode = NetworkConfig::ThetaMode::Fixed;
  cfg.network.fixed_pct = 5.0;
  cfg.sink_count = sinks;
  cfg.loss_rate = loss;
  cfg.transport = transport;
  cfg.keep_records = false;
  return cfg;
}

std::string run_at(ExperimentConfig cfg, unsigned threads) {
  cfg.threads = threads;
  return sweep::summarize(Experiment(cfg).run());
}

TEST(LossyParallel, LossyInstantByteIdenticalAcrossThreads) {
  const ExperimentConfig cfg = base_config(1, 0.15, TransportKind::Instant);
  const std::string sequential = run_at(cfg, 1);
  for (unsigned threads : {2u, 4u}) {
    EXPECT_EQ(run_at(cfg, threads), sequential) << "threads " << threads;
  }
}

TEST(LossyParallel, LossyMultiSinkByteIdenticalAcrossThreads) {
  const ExperimentConfig cfg = base_config(4, 0.15, TransportKind::Instant);
  const std::string sequential = run_at(cfg, 1);
  for (unsigned threads : {2u, 4u}) {
    EXPECT_EQ(run_at(cfg, threads), sequential) << "threads " << threads;
  }
}

TEST(LossyParallel, LmacByteIdenticalAcrossThreads) {
  const ExperimentConfig cfg = base_config(1, 0.0, TransportKind::Lmac);
  const std::string sequential = run_at(cfg, 1);
  for (unsigned threads : {2u, 4u}) {
    EXPECT_EQ(run_at(cfg, threads), sequential) << "threads " << threads;
  }
}

TEST(LossyParallel, LmacMultiSinkByteIdenticalAcrossThreads) {
  const ExperimentConfig cfg = base_config(3, 0.0, TransportKind::Lmac);
  const std::string sequential = run_at(cfg, 1);
  for (unsigned threads : {2u, 4u}) {
    EXPECT_EQ(run_at(cfg, threads), sequential) << "threads " << threads;
  }
}

TEST(LossyParallel, LossyLmacByteIdenticalAcrossThreads) {
  // Both unclamped backends stacked: counter-mode drops riding the LMAC
  // slot schedule under the parallel sensing phase.
  const ExperimentConfig cfg = base_config(2, 0.15, TransportKind::Lmac);
  const std::string sequential = run_at(cfg, 1);
  for (unsigned threads : {2u, 4u}) {
    EXPECT_EQ(run_at(cfg, threads), sequential) << "threads " << threads;
  }
}

TEST(LossyParallel, LossyMultiSinkLedgerReconcilesAtEverySinkCount) {
  // Under loss, a CRC-failed reception is still booked, into the ledger
  // and against the receiving node, before the drop; the per-node
  // attribution must stay in lockstep with the ledger at every sink count
  // and thread count.
  for (std::size_t sinks : {2u, 4u, 8u}) {
    // The channel must actually be engaging (a vacuous reconcile proves
    // nothing): the lossy run's fingerprint differs from the lossless one.
    const std::string lossless =
        run_at(base_config(sinks, 0.0, TransportKind::Instant), 1);
    for (unsigned threads : {1u, 2u, 4u}) {
      ExperimentConfig cfg = base_config(sinks, 0.2, TransportKind::Instant);
      cfg.threads = threads;
      const ExperimentResults res = Experiment(cfg).run();
      EXPECT_NE(sweep::summarize(res), lossless)
          << "sinks " << sinks << " threads " << threads;
      expect_ledger_reconciles(res);
    }
  }
}

}  // namespace
}  // namespace dirq::core
