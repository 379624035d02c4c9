#include "sim/experiment.h"

#include <map>
#include <mutex>
#include <stdexcept>

#include "core/smart_balance.h"
#include "core/trainer.h"
#include "os/gts_balancer.h"
#include "os/iks_balancer.h"
#include "os/utilaware_balancer.h"
#include "os/vanilla_balancer.h"
#include "sim/runner.h"

namespace sb::sim {
namespace {

/// Cache key: the multiset of core-type names fully determines the trained
/// model (training is deterministic for a platform's type set).
std::string platform_key(const arch::Platform& p) {
  std::string key;
  for (CoreTypeId t = 0; t < p.num_types(); ++t) {
    key += p.params_of_type(t).name;
    key += ';';
  }
  return key;
}

using Model = std::optional<core::PredictorModel>;

/// The policy objective: null for the paper's Eq. 11 (the policy's
/// default), else global efficiency charging each core's sleep power.
std::unique_ptr<core::BalanceObjective> make_objective(const Simulation& sim,
                                                       bool eq11) {
  if (eq11) return nullptr;
  std::vector<double> sleep_w;
  for (CoreId c = 0; c < sim.platform().num_cores(); ++c) {
    sleep_w.push_back(
        sim.power_model().sleep_power_w(sim.platform().type_of(c)));
  }
  return std::make_unique<core::GlobalEfficiencyObjective>(std::move(sleep_w));
}

template <class Balancer>
BalancerFactory baseline(const core::SmartBalanceConfig&, Model) {
  return [](const Simulation&) { return std::make_unique<Balancer>(); };
}

template <bool kEq11>
BalancerFactory smartbalance(const core::SmartBalanceConfig& cfg,
                             Model model) {
  if (model) {
    auto shared =
        std::make_shared<const core::PredictorModel>(std::move(*model));
    return [shared, cfg](const Simulation& sim) {
      return std::make_unique<core::SmartBalancePolicy>(
          sim.platform(), *shared, cfg, make_objective(sim, kEq11));
    };
  }
  // Model cache: repeated runs on the same platform shape reuse the trained
  // predictor instead of re-running the profiling regression.
  auto cache =
      std::make_shared<std::map<std::string, core::PredictorModel>>();
  auto mutex = std::make_shared<std::mutex>();
  return [cfg, cache, mutex](const Simulation& sim) {
    const bool dvfs = sim.config().kernel.enable_dvfs;
    const std::string key =
        platform_key(sim.platform()) + (dvfs ? "+dvfs" : "");
    std::lock_guard<std::mutex> lock(*mutex);
    auto it = cache->find(key);
    if (it == cache->end()) {
      it = cache
               ->emplace(key, train_default_model(sim.perf_model(),
                                                  sim.power_model(), dvfs))
               .first;
    }
    return std::make_unique<core::SmartBalancePolicy>(
        sim.platform(), it->second, cfg, make_objective(sim, kEq11));
  };
}

struct PolicyEntry {
  std::string_view name;
  BalancerFactory (*make)(const core::SmartBalanceConfig&, Model);
};

constexpr PolicyEntry kPolicies[] = {
    {"none", baseline<os::NullBalancer>},
    {"vanilla", baseline<os::VanillaBalancer>},
    {"gts", baseline<os::GtsBalancer>},
    {"iks", baseline<os::IksBalancer>},
    {"utilaware", baseline<os::UtilAwareBalancer>},
    {"smartbalance", smartbalance<false>},
    {"smartbalance-eq11", smartbalance<true>},
};

}  // namespace

core::PredictorModel train_default_model(const perf::PerfModel& perf,
                                         const power::PowerModel& power,
                                         bool dvfs_aware) {
  core::PredictorTrainer::Config cfg;
  if (dvfs_aware) {
    cfg.training_freq_ratios = {0.4, 0.7, 1.0};
    cfg.replicas = 4;  // the OPP grid multiplies samples 9x; rebalance cost
  }
  core::PredictorTrainer trainer(perf, power, cfg);
  return trainer.train(core::PredictorTrainer::default_training_profiles());
}

BalancerFactory policy_factory(std::string_view name,
                               const core::SmartBalanceConfig& cfg,
                               Model model) {
  for (const PolicyEntry& p : kPolicies) {
    if (p.name == name) return p.make(cfg, std::move(model));
  }
  std::string valid;
  for (const PolicyEntry& p : kPolicies) {
    valid += valid.empty() ? "" : ", ";
    valid += p.name;
  }
  throw std::invalid_argument("unknown policy '" + std::string(name) +
                              "' (valid: " + valid + ")");
}

std::vector<std::string_view> policy_names() {
  std::vector<std::string_view> names;
  for (const PolicyEntry& p : kPolicies) names.push_back(p.name);
  return names;
}

std::vector<std::pair<std::string, BalancerFactory>> named_policies(
    std::initializer_list<std::string_view> names) {
  std::vector<std::pair<std::string, BalancerFactory>> out;
  for (const std::string_view name : names) {
    out.emplace_back(name, policy_factory(name));
  }
  return out;
}

BalancerFactory vanilla_factory() { return policy_factory("vanilla"); }

BalancerFactory smartbalance_factory(core::SmartBalanceConfig cfg) {
  return policy_factory("smartbalance", cfg);
}

BalancerFactory smartbalance_factory_with_model(core::PredictorModel model,
                                                core::SmartBalanceConfig cfg) {
  return policy_factory("smartbalance", cfg, std::move(model));
}

std::vector<SimulationResult> run_replicated(const arch::Platform& platform,
                                             SimulationConfig cfg,
                                             const WorkloadBuilder& workload,
                                             const BalancerFactory& policy,
                                             int replicas) {
  if (replicas <= 0) throw std::invalid_argument("run_replicated: replicas");
  std::vector<ExperimentSpec> specs;
  specs.reserve(static_cast<std::size_t>(replicas));
  for (int r = 0; r < replicas; ++r) {
    ExperimentSpec spec;
    spec.platform = platform;
    spec.cfg = cfg;
    spec.cfg.seed = replica_seed(cfg.seed, r);
    spec.workload = workload;
    spec.policy = policy;
    spec.label = "replica#" + std::to_string(r);
    specs.push_back(std::move(spec));
  }
  const auto batch = ExperimentRunner().run(specs);
  std::vector<SimulationResult> out;
  out.reserve(batch.runs.size());
  for (const auto& run : batch.runs) {
    if (!run.ok()) throw std::runtime_error("run_replicated: " + run.error);
    out.push_back(run.result);
  }
  return out;
}

std::vector<PolicyRun> compare_policies(
    const arch::Platform& platform, const SimulationConfig& cfg,
    const WorkloadBuilder& workload,
    const std::vector<std::pair<std::string, BalancerFactory>>& policies) {
  std::vector<ExperimentSpec> specs;
  specs.reserve(policies.size());
  for (const auto& [name, factory] : policies) {
    ExperimentSpec spec;
    spec.platform = platform;
    spec.cfg = cfg;
    spec.workload = workload;
    spec.policy = factory;
    spec.label = name;
    spec.policy_name = name;
    specs.push_back(std::move(spec));
  }
  const auto batch = ExperimentRunner().run(specs);
  std::vector<PolicyRun> out;
  out.reserve(batch.runs.size());
  for (const auto& run : batch.runs) {
    if (!run.ok()) {
      throw std::runtime_error("compare_policies[" + run.label +
                               "]: " + run.error);
    }
    PolicyRun pr;
    pr.policy = run.label;
    pr.result = run.result;
    out.push_back(std::move(pr));
  }
  return out;
}

}  // namespace sb::sim
