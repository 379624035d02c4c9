// Unit tests for the balancer's shared forecast join (its one-pass-later
// validity rule) and per-(src,dst) residual tracker: the guarded relative
// residual, the EWMA arithmetic, and the drift flag's debounce, single
// rising edge, and re-arm contract. The audit recorder and online adapter
// tests check only how they read the joined rows and feed the tracker.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "obs/residual_tracker.h"

namespace sb::obs {
namespace {

TEST(ResidualTracker, RelativeResidualIsSignedAndGuardsNearZeroObserved) {
  EXPECT_DOUBLE_EQ(relative_residual(2.5, 2.0), (2.5 - 2.0) / 2.5);
  EXPECT_DOUBLE_EQ(relative_residual(0.8, 1.0), (0.8 - 1.0) / 0.8);
  EXPECT_DOUBLE_EQ(relative_residual(-2.0, -1.0), 0.5);
  // A thread that retired essentially nothing says nothing about the
  // predictor: 0 rather than a huge ratio (or NaN).
  EXPECT_EQ(relative_residual(0.0, 2.0), 0.0);
  EXPECT_EQ(relative_residual(1e-13, 1.0), 0.0);
  EXPECT_EQ(relative_residual(-1e-13, 1.0), 0.0);
  EXPECT_EQ(relative_residual(std::nan(""), 1.0), 0.0);
}

TEST(ResidualTracker, EwmasMatchHandComputedValuesAfterThreeUpdates) {
  ResidualTracker t(/*alpha=*/0.5, /*threshold=*/10.0, /*min_joins=*/1);
  t.update(0, 1, 0.5, -1.0);
  t.update(0, 1, -0.25, 0.0);
  t.update(0, 1, 0.125, 0.5);

  const ResidualTracker::Pair* p = t.find(0, 1);
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->joins, 3u);
  // |gips|: 0.25 -> 0.25 -> 0.1875; signed: 0.25 -> 0 -> 0.0625.
  EXPECT_DOUBLE_EQ(p->ewma_gips, 0.1875);
  EXPECT_DOUBLE_EQ(p->sewma_gips, 0.0625);
  // |power|: 0.5 -> 0.25 -> 0.375; signed: -0.5 -> -0.25 -> 0.125.
  EXPECT_DOUBLE_EQ(p->ewma_power, 0.375);
  EXPECT_DOUBLE_EQ(p->sewma_power, 0.125);
  EXPECT_FALSE(p->active);

  // Pairs are directional and tracked independently.
  EXPECT_EQ(t.find(1, 0), nullptr);
  ASSERT_EQ(t.pairs().size(), 1u);
}

TEST(ResidualTracker, NoEdgeBeforeMinJoinsThenExactlyOneOnCrossing) {
  ResidualTracker t(/*alpha=*/1.0, /*threshold=*/0.2, /*min_joins=*/3);
  // Over the threshold from the first join, but debounced until join 3.
  EXPECT_FALSE(t.update(0, 1, 0.5, 0.0));
  EXPECT_FALSE(t.update(0, 1, 0.5, 0.0));
  EXPECT_FALSE(t.any_active());
  EXPECT_TRUE(t.update(0, 1, 0.5, 0.0));
  EXPECT_TRUE(t.any_active());
  // Staying over the threshold raises no further edges.
  EXPECT_FALSE(t.update(0, 1, 0.5, 0.0));
  EXPECT_FALSE(t.update(0, 1, 0.0, -0.9));  // power alone keeps it over
  EXPECT_TRUE(t.find(0, 1)->active);
}

TEST(ResidualTracker, RearmsAfterDecayAndEdgesAgain) {
  ResidualTracker t(/*alpha=*/0.5, /*threshold=*/0.2, /*min_joins=*/1);
  EXPECT_TRUE(t.update(0, 1, 0.5, 0.0));    // |gips| EWMA 0.25
  EXPECT_FALSE(t.update(0, 1, 0.25, 0.0));  // 0.25: still over, no edge
  EXPECT_FALSE(t.update(0, 1, 0.0, 0.0));   // 0.125: recovered, re-armed
  EXPECT_FALSE(t.any_active());
  EXPECT_FALSE(t.update(0, 1, 0.0, 0.0));   // 0.0625: stays quiet
  EXPECT_TRUE(t.update(0, 1, 0.0, -0.5));   // power 0.25: a fresh edge
  EXPECT_TRUE(t.any_active());

  // Exactly at the threshold counts as recovered.
  ResidualTracker at(/*alpha=*/1.0, /*threshold=*/0.25, /*min_joins=*/1);
  EXPECT_TRUE(at.update(2, 3, 0.5, 0.0));
  EXPECT_FALSE(at.update(2, 3, 0.25, 0.25));
  EXPECT_FALSE(at.any_active());
}

Forecast forecast(std::int64_t tid, std::int32_t core, std::int32_t dst_type) {
  Forecast f;
  f.tid = tid;
  f.core = core;
  f.dst_type = dst_type;
  return f;
}

Observation observed(std::int64_t tid, std::int32_t core,
                     std::int32_t core_type, bool measured = true) {
  Observation o;
  o.tid = tid;
  o.core = core;
  o.core_type = core_type;
  o.measured = measured;
  return o;
}

TEST(ForecastJoin, JoinsOnlyMeasuredThreadsOnThePredictedCoreOnePassLater) {
  // Every forecast predicts core 2, of type 1; each thread's observation
  // one pass later tests one clause of the rule.
  const std::vector<Forecast> forecasts = {
      forecast(1, 2, 1),  // valid
      forecast(2, 2, 1),  // observed on another core
      forecast(3, 2, 1),  // a cached pre-migration row: the wrong type
      forecast(4, 2, 1),  // ran too briefly to be measured
      forecast(5, 2, 1),  // exited: no observation
      forecast(6, 2, 1),  // reported twice: the first entry decides
  };
  const std::vector<Observation> obs = {
      observed(1, 2, 1),        observed(2, 3, 1), observed(3, 2, 0),
      observed(4, 2, 1, false), observed(6, 2, 1), observed(6, 3, 1),
  };
  ForecastLog log;
  log.open(4) = forecasts;
  log.sensed() = obs;
  log.join(5);
  EXPECT_TRUE(log.contiguous());
  EXPECT_EQ(log.consumed(), forecasts.size());
  ASSERT_EQ(log.joined().size(), 2u);
  EXPECT_EQ(log.joined()[0].forecast->tid, 1);
  EXPECT_EQ(log.joined()[0].observed, &log.observations()[0]);
  EXPECT_EQ(log.joined()[1].forecast->tid, 6);
  EXPECT_EQ(log.joined()[1].observed, &log.observations()[4]);

  // Opening the next pass consumes the rows and their join.
  EXPECT_TRUE(log.open(5).empty());
  EXPECT_TRUE(log.joined().empty());

  // An epoch gap (a pass that never reached open()) joins none of them;
  // the rows still count as consumed.
  log.open(4) = forecasts;
  log.sensed() = obs;
  log.join(6);
  EXPECT_FALSE(log.contiguous());
  EXPECT_EQ(log.consumed(), forecasts.size());
  EXPECT_TRUE(log.joined().empty());

  // A degraded pass forecasts nothing: the next pass joins an empty set,
  // contiguously.
  log.open(6);
  log.sensed() = obs;
  log.join(7);
  EXPECT_TRUE(log.contiguous());
  EXPECT_EQ(log.consumed(), 0u);
  EXPECT_TRUE(log.joined().empty());
}

}  // namespace
}  // namespace sb::obs
