// Unit tests for the shared per-(src,dst) residual tracker: the guarded
// relative residual, the EWMA arithmetic, and the drift flag's debounce,
// single rising edge, and re-arm contract. The audit recorder and online
// adapter tests check only how they feed and read it.
#include <gtest/gtest.h>

#include <cmath>

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

}  // namespace
}  // namespace sb::obs
