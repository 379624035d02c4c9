#include "os/task.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace sb::os {
namespace {

TEST(NiceToWeight, LinuxTableAnchors) {
  EXPECT_EQ(nice_to_weight(0), 1024u);
  EXPECT_EQ(nice_to_weight(-20), 88761u);
  EXPECT_EQ(nice_to_weight(19), 15u);
  EXPECT_EQ(nice_to_weight(1), 820u);
  EXPECT_EQ(nice_to_weight(-1), 1277u);
  EXPECT_EQ(nice_to_weight(5), 335u);
}

TEST(NiceToWeight, MonotoneDecreasing) {
  for (int n = -20; n < 19; ++n) {
    EXPECT_GT(nice_to_weight(n), nice_to_weight(n + 1)) << "nice " << n;
  }
}

TEST(NiceToWeight, TwentyFivePercentRule) {
  // Each nice step changes share by ~25% (Linux invariant, loosely).
  for (int n = -10; n < 10; ++n) {
    const double ratio = static_cast<double>(nice_to_weight(n)) /
                         static_cast<double>(nice_to_weight(n + 1));
    EXPECT_NEAR(ratio, 1.25, 0.04) << "nice " << n;
  }
}

TEST(NiceToWeight, OutOfRangeThrows) {
  EXPECT_THROW(nice_to_weight(-21), std::out_of_range);
  EXPECT_THROW(nice_to_weight(20), std::out_of_range);
}

TEST(Task, DefaultsAllowAllCores) {
  Task t;
  for (CoreId c : {0, 1, 63, 255}) EXPECT_TRUE(t.can_run_on(c));
  EXPECT_FALSE(t.can_run_on(-1));
  EXPECT_FALSE(t.can_run_on(kMaxCores));
}

TEST(Task, AffinityMask) {
  Task t;
  t.cpus_allowed.reset();
  t.cpus_allowed.set(2);
  EXPECT_TRUE(t.can_run_on(2));
  EXPECT_FALSE(t.can_run_on(0));
}

TEST(Task, StateNames) {
  EXPECT_STREQ(to_string(TaskState::Runnable), "Runnable");
  EXPECT_STREQ(to_string(TaskState::Running), "Running");
  EXPECT_STREQ(to_string(TaskState::Sleeping), "Sleeping");
}

TEST(Task, PhaseAccessorsCycle) {
  Task t;
  workload::WorkloadProfile p;
  p.name = "a";
  t.behavior.phases.push_back({p, 100});
  p.name = "b";
  t.behavior.phases.push_back({p, 200});
  t.phase_idx = 0;
  EXPECT_EQ(t.current_profile().name, "a");
  EXPECT_EQ(t.current_phase_length(), 100u);
  t.phase_idx = 1;
  EXPECT_EQ(t.current_profile().name, "b");
  t.phase_idx = 2;  // wraps via modulo
  EXPECT_EQ(t.current_profile().name, "a");
}

TEST(Task, EpochAccumulatorReset) {
  Task t;
  t.epoch_counters.inst_total = 5;
  t.epoch_energy_j = 1.5;
  t.epoch_runtime = 10;
  t.reset_epoch_accumulators();
  EXPECT_TRUE(t.epoch_counters.empty());
  EXPECT_EQ(t.epoch_energy_j, 0.0);
  EXPECT_EQ(t.epoch_runtime, 0);
}

}  // namespace
}  // namespace sb::os
