// Concurrency stress for ExperimentRunner: a large mixed-policy batch on
// many worker threads, run twice, compared run-to-run. Under ThreadSanitizer
// (the CI tsan job) this exercises the shared predictor-model cache in
// smartbalance_factory, the logging path, and the lazily-initialized
// benchmark/feature tables for data races.
#include "sim/runner.h"

#include <gtest/gtest.h>

#include "arch/platform.h"
#include "common/log.h"

namespace sb::sim {
namespace {

ExperimentRunner runner_with(int threads) {
  ExperimentRunner::Config cfg;
  cfg.threads = threads;
  return ExperimentRunner(cfg);
}

/// 72 small specs cycling through platforms, workloads and policies. A
/// single SmartBalance factory is shared across all its specs so concurrent
/// workers hit the same predictor-model cache (the interesting race
/// surface); vanilla and GTS interleave to vary per-run timing.
std::vector<ExperimentSpec> stress_batch() {
  const auto quad = arch::Platform::quad_heterogeneous();
  const auto octa = arch::Platform::octa_big_little();
  const auto shared_smart = smartbalance_factory();
  const char* benches[] = {"swaptions", "canneal",  "bodytrack",
                           "IMB_HTHI",  "IMB_LTLI", "streamcluster"};
  std::vector<ExperimentSpec> specs;
  for (int i = 0; i < 72; ++i) {
    ExperimentSpec spec;
    const bool big_little = (i % 2) == 1;
    spec.platform = big_little ? octa : quad;
    spec.cfg.duration = milliseconds(30);
    spec.cfg.seed = 100 + static_cast<std::uint64_t>(i);
    const std::string bench = benches[i % 6];
    const int threads = 1 + (i % 4);
    spec.workload = [bench, threads](Simulation& s) {
      s.add_benchmark(bench, threads);
    };
    switch (i % 3) {
      case 0:
        spec.policy = vanilla_factory();
        spec.policy_name = "vanilla";
        break;
      case 1:
        spec.policy = big_little ? policy_factory("gts") : vanilla_factory();
        spec.policy_name = big_little ? "gts" : "vanilla";
        break;
      default:
        spec.policy = shared_smart;
        spec.policy_name = "smartbalance";
        break;
    }
    spec.label = bench + "#" + std::to_string(i);
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(RunnerStress, LargeMixedBatchIsRunToRunDeterministic) {
  // Raise log traffic through the mutex-guarded emitter while workers run.
  const auto prev = log_level();
  set_log_level(LogLevel::Warn);
  const auto specs = stress_batch();
  ASSERT_GE(specs.size(), 64u);
  const auto first = runner_with(8).run(specs);
  const auto second = runner_with(8).run(specs);
  ASSERT_EQ(first.runs.size(), specs.size());
  ASSERT_EQ(second.runs.size(), specs.size());
  EXPECT_EQ(first.summary.failed, 0u);
  EXPECT_EQ(second.summary.failed, 0u);
  for (std::size_t i = 0; i < specs.size(); ++i) {
    ASSERT_TRUE(first.runs[i].ok()) << first.runs[i].error;
    ASSERT_TRUE(second.runs[i].ok()) << second.runs[i].error;
    EXPECT_EQ(first.runs[i].label, specs[i].label);
    const auto& a = first.runs[i].result;
    const auto& b = second.runs[i].result;
    EXPECT_EQ(a.instructions, b.instructions) << specs[i].label;
    EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j) << specs[i].label;
    EXPECT_EQ(a.migrations, b.migrations) << specs[i].label;
    EXPECT_EQ(a.context_switches, b.context_switches) << specs[i].label;
  }
  set_log_level(prev);
}

TEST(RunnerStress, SharedSmartBalanceFactoryRacesOnlyOnTraining) {
  // All specs share one smartbalance factory on the same platform shape:
  // exactly one training happens under the cache mutex, every other worker
  // blocks then reuses it. Results must be identical to isolated factories.
  const auto quad = arch::Platform::quad_heterogeneous();
  const auto shared = smartbalance_factory();
  std::vector<ExperimentSpec> specs;
  for (int i = 0; i < 8; ++i) {
    ExperimentSpec spec;
    spec.platform = quad;
    spec.cfg.duration = milliseconds(30);
    spec.cfg.seed = 42;  // same seed: all runs must agree exactly
    spec.workload = [](Simulation& s) { s.add_benchmark("canneal", 4); };
    spec.policy = shared;
    spec.label = "sb#" + std::to_string(i);
    specs.push_back(std::move(spec));
  }
  const auto batch = runner_with(8).run(specs);
  ASSERT_EQ(batch.summary.failed, 0u);
  for (std::size_t i = 1; i < batch.runs.size(); ++i) {
    EXPECT_EQ(batch.runs[i].result.instructions,
              batch.runs[0].result.instructions);
    EXPECT_DOUBLE_EQ(batch.runs[i].result.energy_j,
                     batch.runs[0].result.energy_j);
  }
}

}  // namespace
}  // namespace sb::sim
