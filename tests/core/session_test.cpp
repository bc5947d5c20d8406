// core::Session: the world build and epoch clock batch and serve share —
// the per-epoch call order, the hourly per-sink EHr cadence fed by
// record_query, and the LMAC frame drain.
#include "core/session.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "data/fast_field.hpp"
#include "net/placement.hpp"
#include "sim/rng.hpp"

namespace dirq::core {
namespace {

ExperimentConfig small_cfg() {
  ExperimentConfig cfg;
  cfg.seed = 11;
  cfg.placement.node_count = 30;
  cfg.network.mode = NetworkConfig::ThetaMode::Fixed;
  cfg.network.fixed_pct = 5.0;
  cfg.epochs_per_hour = 10;
  return cfg;
}

TEST(Session, RunsEveryEpochInOrderAndFloodsEhrHourly) {
  ExperimentConfig cfg = small_cfg();
  cfg.sink_count = 2;
  const double prior = 40.0;
  Session session(cfg, prior);
  ASSERT_EQ(session.roots().size(), 2u);
  ASSERT_EQ(session.roots().front(), NodeId{0});

  // Tree 0's sink sees a query every other epoch; tree 1's sees none.
  query::QueryRatePredictor mirror(0.4, cfg.epochs_per_hour);
  std::vector<std::int64_t> seen;
  session.run(35, [&](std::int64_t epoch) {
    EXPECT_EQ(session.environment().epoch(), epoch);
    seen.push_back(epoch);
    if (epoch % 2 == 0) {
      session.record_query(0, epoch);
      mirror.record_query(epoch);
    }
  });
  ASSERT_EQ(seen.size(), 35u);
  for (std::size_t k = 0; k < seen.size(); ++k) {
    EXPECT_EQ(seen[k], static_cast<std::int64_t>(k));
  }

  // Four hour boundaries (epochs 0, 10, 20, 30), one flood per sink each.
  ASSERT_EQ(session.sink_umax_per_hour().size(), 2u);
  for (const std::vector<double>& umax : session.sink_umax_per_hour()) {
    EXPECT_EQ(umax.size(), 4u);
  }
  // Hour boundaries flood before the epoch's queries are recorded, so the
  // prior (split across the two sinks) holds until a completed hour is on
  // record: hours 0 and 1. Hours 2 and 3 flood the predictor's estimate.
  const std::vector<double>& ehr = session.ehr_per_hour();
  ASSERT_EQ(ehr.size(), 4u);
  EXPECT_DOUBLE_EQ(ehr[0], prior / 2.0);
  EXPECT_DOUBLE_EQ(ehr[1], prior / 2.0);
  EXPECT_DOUBLE_EQ(ehr[2], 5.0);
  EXPECT_DOUBLE_EQ(ehr[3], mirror.predict_next_hour());
}

TEST(Session, LmacDrainsOneFramePerEpochAndCountsMacCost) {
  ExperimentConfig cfg = small_cfg();
  Session instant(cfg, 10.0);
  instant.run(20, [](std::int64_t) {});
  EXPECT_EQ(instant.mac_control_units(), 0);

  cfg.transport = TransportKind::Lmac;
  Session lmac(cfg, 10.0);
  CostUnits previous = 0;
  lmac.run(20, [&](std::int64_t) {
    // The previous epoch's frame was drained before this epoch started:
    // LMAC's keep-alive traffic grows frame by frame.
    EXPECT_GE(lmac.mac_control_units(), previous);
    previous = lmac.mac_control_units();
  });
  EXPECT_GT(lmac.mac_control_units(), 0);
  // Draining up to a frame that has already run delivers nothing new.
  const CostUnits after_run = lmac.mac_control_units();
  lmac.drain_mac_until(20);
  EXPECT_EQ(lmac.mac_control_units(), after_run);
  lmac.drain_mac_until(25);
  EXPECT_GT(lmac.mac_control_units(), after_run);
}

// Serve used to call advance_to(0) before drawing its predicate pool;
// the Session drops that call because a fresh environment already sits at
// epoch 0 on both backends.
TEST(Session, AdvanceToZeroIsANoOpOnAFreshEnvironment) {
  for (const data::EnvironmentBackend backend :
       {data::EnvironmentBackend::Pinned, data::EnvironmentBackend::Fast}) {
    sim::Rng rng(5);
    net::RandomPlacementConfig placement;
    placement.node_count = 25;
    const net::Topology topo = net::random_connected(placement, rng);
    const auto fresh = data::make_environment(
        backend, topo, placement.sensor_type_count, rng.substream("environment"));
    const auto advanced = data::make_environment(
        backend, topo, placement.sensor_type_count, rng.substream("environment"));
    advanced->advance_to(0);
    const auto expect_same = [&](const char* when) {
      for (NodeId n = 0; n < topo.size(); ++n) {
        for (SensorType t = 0; t < placement.sensor_type_count; ++t) {
          EXPECT_EQ(fresh->reading(n, t), advanced->reading(n, t))
              << data::backend_name(backend) << " " << when;
        }
      }
    };
    expect_same("at epoch 0");
    fresh->advance_to(7);
    advanced->advance_to(7);
    expect_same("at epoch 7");
  }
}

}  // namespace
}  // namespace dirq::core
