// Threshold controllers: fixed percentages and the ATC reconstruction
// (DESIGN.md §1.7): budget derivation from EHr, band steering, clamping,
// variability-scaled steps.
#include "core/atc.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace dirq::core {
namespace {

TEST(NominalSpan, PositiveForAllTypes) {
  for (SensorType t = 0; t < 8; ++t) EXPECT_GT(nominal_span(t), 0.0);
}

TEST(FixedTheta, PercentageOfSpan) {
  FixedTheta f(5.0);
  EXPECT_DOUBLE_EQ(f.theta(kSensorTemperature),
                   0.05 * nominal_span(kSensorTemperature));
  EXPECT_DOUBLE_EQ(f.theta_pct(kSensorTemperature), 5.0);
  EXPECT_DOUBLE_EQ(f.theta_pct(kSensorLight), 5.0);
}

TEST(FixedTheta, HooksAreNoOps) {
  FixedTheta f(3.0);
  f.on_reading(kSensorTemperature, 25.0);
  f.on_update_sent(kSensorTemperature, 10);
  f.on_epoch(10);
  EXPECT_DOUBLE_EQ(f.theta_pct(kSensorTemperature), 3.0);
}

EhrMessage ehr(double umax_per_hour, std::uint32_t nodes = 50) {
  EhrMessage m;
  m.expected_queries_per_hour = 180.0;
  m.umax_per_hour = umax_per_hour;
  m.alive_nodes = nodes;
  m.round = 1;
  return m;
}

TEST(Atc, StartsAtInitialPct) {
  AtcController c(AtcConfig{});
  EXPECT_NEAR(c.theta_pct(kSensorTemperature), 5.0, 1e-9);
}

TEST(Atc, BudgetIsFairShare) {
  AtcController c(AtcConfig{});
  c.on_ehr(ehr(500.0, 50), 0);
  EXPECT_DOUBLE_EQ(c.budget_per_hour(), 10.0);
}

TEST(Atc, ZeroNodesIgnored) {
  AtcController c(AtcConfig{});
  c.on_ehr(ehr(500.0, 0), 0);
  EXPECT_DOUBLE_EQ(c.budget_per_hour(), 0.0);
}

TEST(Atc, RateEstimateScalesToHour) {
  AtcConfig cfg;
  cfg.rate_window_epochs = 600;
  AtcController c(cfg);
  for (std::int64_t e = 1000; e < 1010; ++e) c.on_update_sent(kSensorTemperature, e);
  // 10 updates in a 600-epoch window -> 60/hour (3600-epoch hour).
  EXPECT_NEAR(c.estimated_rate_per_hour(1300), 60.0, 1e-9);
}

TEST(Atc, OldUpdatesLeaveTheWindow) {
  AtcConfig cfg;
  cfg.rate_window_epochs = 100;
  AtcController c(cfg);
  c.on_update_sent(kSensorTemperature, 0);
  c.on_epoch(500);  // no adjustment; the estimate skips pre-window entries
  EXPECT_DOUBLE_EQ(c.estimated_rate_per_hour(500), 0.0);
}

TEST(Atc, TypeEntriesOlderThanTheWindowGetNoWidenShare) {
  AtcConfig cfg;
  cfg.rate_window_epochs = 100;
  cfg.adjust_period = 10;
  AtcController c(cfg);
  c.on_reading(kSensorTemperature, 20.0);
  c.on_reading(kSensorHumidity, 50.0);
  c.on_ehr(ehr(50.0, 50), 0);  // budget = 1/hour
  // Humidity's entries stay in its window until its next append, which
  // never comes; by epoch 500 they are outside the window.
  for (std::int64_t e = 1; e <= 10; ++e) c.on_update_sent(kSensorHumidity, e);
  const double humidity = c.theta_pct(kSensorHumidity);
  for (std::int64_t e = 500; e <= 600; ++e) {
    c.on_update_sent(kSensorTemperature, e);
    c.on_epoch(e);
  }
  EXPECT_GT(c.theta_pct(kSensorTemperature), cfg.initial_pct);
  EXPECT_DOUBLE_EQ(c.theta_pct(kSensorHumidity), humidity);
}

TEST(Atc, OverBudgetWidensTheta) {
  AtcConfig cfg;
  cfg.rate_window_epochs = 100;
  cfg.adjust_period = 10;
  AtcController c(cfg);
  c.on_reading(kSensorTemperature, 20.0);  // register the type
  c.on_reading(kSensorTemperature, 21.0);
  c.on_ehr(ehr(50.0, 50), 0);  // budget = 1/hour
  const double before = c.theta_pct(kSensorTemperature);
  for (std::int64_t e = 1; e <= 50; ++e) {
    c.on_update_sent(kSensorTemperature, e);  // way over 1/hour
    c.on_epoch(e);
  }
  EXPECT_GT(c.theta_pct(kSensorTemperature), before);
}

TEST(Atc, UnderBudgetNarrowsTheta) {
  AtcConfig cfg;
  cfg.rate_window_epochs = 100;
  cfg.adjust_period = 10;
  AtcController c(cfg);
  c.on_reading(kSensorTemperature, 20.0);
  c.on_reading(kSensorTemperature, 21.0);
  c.on_ehr(ehr(1e6, 50), 0);  // enormous budget, zero updates sent
  const double before = c.theta_pct(kSensorTemperature);
  for (std::int64_t e = 1; e <= 50; ++e) c.on_epoch(e);
  EXPECT_LT(c.theta_pct(kSensorTemperature), before);
}

TEST(Atc, InsideBandHolds) {
  AtcConfig cfg;
  cfg.rate_window_epochs = 3600;
  cfg.adjust_period = 10;
  AtcController c(cfg);
  c.on_reading(kSensorTemperature, 20.0);
  c.on_reading(kSensorTemperature, 21.0);
  c.on_ehr(ehr(100.0, 1), 0);  // budget = 100/hour; band [45, 55]
  // Send 50/hour steadily. During the first hour the sliding window is
  // still filling (rate reads low, theta narrows); once primed, the rate
  // sits mid-band and theta must hold perfectly still.
  auto drive_hour = [&](std::int64_t from) {
    for (std::int64_t e = from; e < from + 3600; ++e) {
      if (e % 72 == 0) c.on_update_sent(kSensorTemperature, e);
      c.on_epoch(e);
    }
  };
  drive_hour(1);
  const double primed = c.theta_pct(kSensorTemperature);
  drive_hour(3601);
  EXPECT_NEAR(c.theta_pct(kSensorTemperature), primed, 1e-9);
}

TEST(Atc, NoEhrNoAdjustment) {
  AtcConfig cfg;
  cfg.adjust_period = 10;
  AtcController c(cfg);
  c.on_reading(kSensorTemperature, 20.0);
  for (std::int64_t e = 1; e <= 100; ++e) {
    c.on_update_sent(kSensorTemperature, e);
    c.on_epoch(e);
  }
  EXPECT_NEAR(c.theta_pct(kSensorTemperature), 5.0, 1e-9);
}

TEST(Atc, ThetaClampsAtMax) {
  AtcConfig cfg;
  cfg.rate_window_epochs = 100;
  cfg.adjust_period = 1;
  cfg.max_pct = 12.0;
  AtcController c(cfg);
  c.on_reading(kSensorTemperature, 20.0);
  c.on_reading(kSensorTemperature, 30.0);
  c.on_ehr(ehr(0.1, 50), 0);
  for (std::int64_t e = 1; e <= 2000; ++e) {
    c.on_update_sent(kSensorTemperature, e);
    c.on_epoch(e);
  }
  EXPECT_LE(c.theta_pct(kSensorTemperature), 12.0 + 1e-9);
  EXPECT_NEAR(c.theta_pct(kSensorTemperature), 12.0, 0.5);
}

TEST(Atc, ThetaClampsAtMin) {
  AtcConfig cfg;
  cfg.rate_window_epochs = 100;
  cfg.adjust_period = 1;
  cfg.min_pct = 1.0;
  AtcController c(cfg);
  c.on_reading(kSensorTemperature, 20.0);
  c.on_reading(kSensorTemperature, 21.0);
  c.on_ehr(ehr(1e9, 1), 0);
  for (std::int64_t e = 1; e <= 2000; ++e) c.on_epoch(e);
  EXPECT_GE(c.theta_pct(kSensorTemperature), 1.0 - 1e-9);
  EXPECT_NEAR(c.theta_pct(kSensorTemperature), 1.0, 0.1);
}

TEST(Atc, VolatileTypeMovesFaster) {
  // Two controllers over budget; the one whose signal varies more per
  // epoch must widen theta faster (variability-scaled steps).
  AtcConfig cfg;
  cfg.rate_window_epochs = 100;
  cfg.adjust_period = 10;
  AtcController calm(cfg), wild(cfg);
  double v = 20.0;
  for (int i = 0; i < 50; ++i) {
    calm.on_reading(kSensorTemperature, v + 0.01 * (i % 2));
    wild.on_reading(kSensorTemperature, v + 10.0 * (i % 2));
  }
  calm.on_ehr(ehr(0.1, 50), 0);
  wild.on_ehr(ehr(0.1, 50), 0);
  for (std::int64_t e = 1; e <= 30; ++e) {
    calm.on_update_sent(kSensorTemperature, e);
    wild.on_update_sent(kSensorTemperature, e);
    calm.on_epoch(e);
    wild.on_epoch(e);
  }
  EXPECT_GT(wild.theta_pct(kSensorTemperature),
            calm.theta_pct(kSensorTemperature));
}

TEST(Atc, AdjustsOnlyOnPeriodBoundaries) {
  AtcConfig cfg;
  cfg.rate_window_epochs = 100;
  cfg.adjust_period = 1000;
  AtcController c(cfg);
  c.on_reading(kSensorTemperature, 20.0);
  c.on_reading(kSensorTemperature, 25.0);
  c.on_ehr(ehr(0.1, 50), 0);
  for (std::int64_t e = 1; e <= 500; ++e) {
    c.on_update_sent(kSensorTemperature, e);
    c.on_epoch(e);
  }
  EXPECT_NEAR(c.theta_pct(kSensorTemperature), 5.0, 1e-9);  // not yet
}

}  // namespace
}  // namespace dirq::core
