// Experiment helpers: run the same workload under different balancing
// policies and compare energy efficiency — the structure of every figure in
// the paper's evaluation.
#pragma once

#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/predictor.h"
#include "core/smart_balance.h"
#include "os/load_balancer.h"
#include "sim/simulation.h"

namespace sb::sim {

/// Builds a policy for a concrete simulation (called after the Simulation's
/// models exist, so SmartBalance can be trained against them).
using BalancerFactory = std::function<std::unique_ptr<os::LoadBalancer>(
    const Simulation& sim)>;

/// Populates a Simulation with its workload (threads must be identical
/// across policies; the callable is invoked once per policy run).
using WorkloadBuilder = std::function<void(Simulation& sim)>;

/// The policy table: every balancing policy by name. "none", "vanilla",
/// "gts", "iks" and "utilaware" are the stock baselines at fixed thresholds
/// (gts, iks and utilaware need a two-type big.LITTLE platform);
/// "smartbalance" anneals global platform IPS/W and "smartbalance-eq11" the
/// paper's Eq. 11 verbatim. `cfg` and `model` configure only those two,
/// which without a model train one per platform shape and cache it in the
/// returned factory. Any other name throws std::invalid_argument naming the
/// valid ones.
BalancerFactory policy_factory(
    std::string_view name,
    const core::SmartBalanceConfig& cfg = core::SmartBalanceConfig(),
    std::optional<core::PredictorModel> model = std::nullopt);

/// The policy table's names, in table order.
std::vector<std::string_view> policy_names();

/// (name, policy_factory(name)) for each of `names`, in order: the policy
/// list compare_policies and run_sweep take.
std::vector<std::pair<std::string, BalancerFactory>> named_policies(
    std::initializer_list<std::string_view> names);

/// policy_factory("vanilla").
BalancerFactory vanilla_factory();

/// policy_factory("smartbalance", cfg): a predictor trained (and cached
/// per platform shape) from the default benchmark library profiles.
BalancerFactory smartbalance_factory(
    core::SmartBalanceConfig cfg = core::SmartBalanceConfig());

/// policy_factory("smartbalance", cfg, model): an explicit (e.g.
/// loaded-from-disk) predictor model instead of a trained one.
BalancerFactory smartbalance_factory_with_model(
    core::PredictorModel model,
    core::SmartBalanceConfig cfg = core::SmartBalanceConfig());

/// Trains the default predictor model for a simulation's platform/models.
/// With `dvfs_aware`, profiling samples a grid of frequency ratios so the
/// FR feature stays calibrated under DVFS governors.
core::PredictorModel train_default_model(const perf::PerfModel& perf,
                                         const power::PowerModel& power,
                                         bool dvfs_aware = false);

/// Seed schedule for replica r of an experiment with base seed `base`.
/// Golden-ratio stride keeps replica seeds well separated; the published
/// CSV golden figures depend on this exact schedule, so it is pinned by a
/// regression test and shared by the sequential and parallel paths.
constexpr std::uint64_t replica_seed(std::uint64_t base, int r) {
  return base + static_cast<std::uint64_t>(r) * 0x9e3779b9ULL;
}

/// Replicated run: executes `workload` under `policy` for `replicas` seeds
/// (replica_seed(cfg.seed, r)) and returns per-replica results (for mean ±
/// stddev reporting). Runs replicas in parallel via ExperimentRunner;
/// results are bit-identical to the sequential path.
std::vector<SimulationResult> run_replicated(
    const arch::Platform& platform, SimulationConfig cfg,
    const WorkloadBuilder& workload, const BalancerFactory& policy,
    int replicas);

struct PolicyRun {
  std::string policy;
  SimulationResult result;
};

/// Runs `workload` once per policy on identical platform/seed/duration.
/// Policies run in parallel via ExperimentRunner; results are returned in
/// `policies` order and are bit-identical to the sequential path.
std::vector<PolicyRun> compare_policies(
    const arch::Platform& platform, const SimulationConfig& cfg,
    const WorkloadBuilder& workload,
    const std::vector<std::pair<std::string, BalancerFactory>>& policies);

}  // namespace sb::sim
