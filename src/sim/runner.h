// Parallel deterministic experiment runner.
//
// Every figure in the paper's evaluation is a sweep over (workload × policy
// × replica-seed) configurations, and each configuration is an independent
// Simulation. ExperimentRunner executes a batch of such configurations
// across a pool of worker threads and returns results in submission order.
//
// Determinism is a hard guarantee: each spec's Simulation derives all of
// its randomness from the spec's own cfg.seed (every stochastic component
// owns a private Rng — see common/rng.h), so a batch produces bit-identical
// SimulationResults regardless of worker count or completion order. The
// only cross-spec shared state in the library is the predictor-model cache
// inside a SmartBalance factory (mutex-guarded, and training is deterministic
// per platform shape) and the global log level (atomic; log lines are
// emitted under a mutex so they cannot interleave).
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "arch/platform.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

namespace sb::sim {

/// One unit of work: a fully-specified simulation. The platform is held by
/// value so a spec stays valid independently of its builder's lifetime.
struct ExperimentSpec {
  arch::Platform platform;
  SimulationConfig cfg;
  WorkloadBuilder workload;
  BalancerFactory policy;
  /// Experiment label, surfaced as ExperimentResult::label.
  std::string label;
  /// Non-empty: stamped onto SimulationResult::policy (compare_policies
  /// semantics).
  std::string policy_name;
};

/// Outcome of one spec. A spec that throws reports the exception message in
/// `error` without poisoning the rest of the batch.
struct ExperimentResult {
  std::string label;
  SimulationResult result;
  /// Host wall-clock of this run, milliseconds.
  double wall_ms = 0;
  /// Empty on success; the exception's what() otherwise.
  std::string error;

  bool ok() const { return error.empty(); }
};

/// Aggregate accounting for one batch.
struct BatchSummary {
  std::size_t total = 0;
  std::size_t failed = 0;
  /// Worker threads actually used.
  int threads = 0;
  /// End-to-end host wall-clock of the batch, milliseconds.
  double wall_ms = 0;
  /// Sum of per-run wall-clocks (the sequential-equivalent cost); the ratio
  /// cpu_ms / wall_ms approximates the achieved parallel speedup.
  double cpu_ms = 0;

  double speedup() const { return wall_ms > 0 ? cpu_ms / wall_ms : 0; }
};

struct BatchResult {
  /// One entry per spec, in submission order.
  std::vector<ExperimentResult> runs;
  BatchSummary summary;
};

/// Thread-pool executor for batches of ExperimentSpecs.
///
/// Worker count resolution, in priority order:
///   1. Config::threads, when > 0;
///   2. the SB_JOBS environment variable, when set to an integer > 0;
///   3. std::thread::hardware_concurrency() (at least 1).
class ExperimentRunner {
 public:
  struct Config {
    /// 0 = resolve from SB_JOBS / hardware concurrency.
    int threads = 0;
  };

  ExperimentRunner();
  explicit ExperimentRunner(Config cfg);

  /// The resolved worker count this runner will use.
  int threads() const { return threads_; }

  /// SB_JOBS if set and positive, otherwise hardware_concurrency() (>= 1).
  static int default_threads();

  /// Executes the batch; results come back in submission order with
  /// per-run timing. Never throws for spec failures (see
  /// ExperimentResult::error); an empty batch returns an empty result.
  BatchResult run(const std::vector<ExperimentSpec>& specs) const;

 private:
  int threads_ = 1;
};

/// Full cross-product sweep (workload × policy × replica) executed through
/// `runner`. Replica r of every configuration runs with
/// replica_seed(cfg.seed, r); labels are "<workload>/<policy>" (with "#r"
/// appended when replicas > 1). Order: workload-major, then policy, then
/// replica — matching the nested loops of the sequential bench harnesses.
BatchResult run_sweep(
    const arch::Platform& platform, const SimulationConfig& cfg,
    const std::vector<std::pair<std::string, WorkloadBuilder>>& workloads,
    const std::vector<std::pair<std::string, BalancerFactory>>& policies,
    int replicas = 1, const ExperimentRunner& runner = ExperimentRunner());

}  // namespace sb::sim
