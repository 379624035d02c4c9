// SmartBalance: the closed-loop sense → predict → balance policy (§4).
//
// Installed in place of the kernel's rebalance_domains(); fires once per
// epoch (60 ms default, covering L = 10 CFS periods of 6 ms). Each pass:
//   1. SENSE    — drain per-thread counters and per-core power sensors,
//                 apply measurement noise, produce ThreadObservations.
//   2. PREDICT  — estimate each thread's IPS/power on its current core
//                 (Eqs. 4–7) and predict them on every other core type
//                 (Eqs. 8–9), filling S(k) and P(k).
//   3. BALANCE  — run the fixed-point SA optimizer (Algorithm 1) on
//                 J = Σ ω_j IPS_j/P_j starting from the current allocation
//                 and migrate threads whose assignment changed.
//
// Host wall-clock of every phase is recorded per pass for the Fig. 7
// overhead study.
#pragma once

#include <memory>
#include <unordered_map>
#include <vector>

#include "common/stats.h"
#include "core/adapt.h"
#include "core/char_matrix.h"
#include "core/objective.h"
#include "core/predictor.h"
#include "core/sa_optimizer.h"
#include "core/sensing.h"
#include "core/shard.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "os/kernel.h"
#include "os/load_balancer.h"
#include "os/vanilla_balancer.h"

namespace sb::core {

struct SmartBalanceConfig {
  /// Epoch length T_Epoch (covers L CFS scheduling periods).
  TimeNs epoch = milliseconds(60);
  /// SA iteration budget per pass (Opt_max_iter); 0 = auto-scale from the
  /// problem size with the Fig. 8(a) rule. With K shards it is the global
  /// budget split across them.
  int sa_iterations = 0;
  SensingSubsystem::Config sensing;
  /// Apply a new allocation only if its predicted objective exceeds the
  /// current one by this relative margin. Hysteresis against noise-driven
  /// migration thrash: prediction error (Fig. 6, ~4-5%) would otherwise
  /// reshuffle near-equivalent allocations every epoch, paying cache-warmup
  /// costs for no real gain.
  double min_relative_gain = 0.02;
  /// After migrating a thread, freeze it on its new core for this many
  /// epochs: the first post-migration epoch measures cold caches and the
  /// characterization history restarts on the new core type, so letting the
  /// optimizer move the thread again immediately would act on the noisiest
  /// possible data (and ping-pong). 0 disables.
  int migration_cooldown_epochs = 2;

  /// Sparse virtual sensing (paper §6.4): cores whose bit is set have a
  /// physical power sensor; threads measured on other cores get their power
  /// from the Eq. 9 virtual sensor (p̂ = α1·ipc + α0 for the core's type)
  /// instead of a reading. Default: every core instrumented.
  std::bitset<kMaxCores> power_sensor_cores = std::bitset<kMaxCores>().set();

  /// Deterministic sensor/migration fault plan (see fault/fault_plan.h).
  /// Empty (the default) injects nothing and leaves every golden figure
  /// bit-identical.
  fault::FaultPlan fault_plan;
  /// Sensing-defense activation. kAuto enables the defense layer exactly
  /// when the fault plan is non-empty — so clean runs stay on the
  /// bit-identical undefended path, and faulty runs defend themselves.
  /// kOn / kOff force either side (kOff under faults is the ablation arm of
  /// fig_fault_resilience).
  enum class Defenses { kAuto, kOn, kOff };
  Defenses defenses = Defenses::kAuto;
  /// Online predictor adaptation (see core/adapt.h): bias/gain correction
  /// of the Eq. 8 forecasts and/or RLS coefficient updates, driven by the
  /// policy's own forecast→observation joins. Off by default — every
  /// golden stays bit-identical.
  using Adaptation = AdaptationConfig;
  Adaptation adaptation;
  /// Sharded hierarchical balancing (see core/shard.h). The default, one
  /// shard (`shards` 0 or 1), anneals the whole platform as one problem;
  /// K > 1 partitions it into clusters, anneals each shard in parallel on
  /// the shared fork-join pool, then runs a bounded global exchange phase.
  using Sharding = ShardingConfig;
  Sharding sharding;
};

class SmartBalancePolicy final : public os::LoadBalancer {
 public:
  /// `model` must be trained for the platform's core types (PredictorTrainer).
  /// A null `objective` anneals the paper's Eq. 11 with every ω_j = 1
  /// (EnergyEfficiencyObjective).
  SmartBalancePolicy(const arch::Platform& platform, PredictorModel model,
                     SmartBalanceConfig cfg = SmartBalanceConfig(),
                     std::unique_ptr<BalanceObjective> objective = nullptr);

  TimeNs interval() const override { return cfg_.epoch; }
  void on_balance(os::Kernel& kernel, TimeNs now) override;
  std::string name() const override { return "smartbalance"; }
  std::uint64_t passes() const override { return passes_; }

  // --- Introspection for experiments ---
  const RunningStats& sense_ns() const { return sense_ns_; }
  const RunningStats& predict_ns() const { return predict_ns_; }
  const RunningStats& optimize_ns() const { return optimize_ns_; }
  const RunningStats& migrations_per_pass() const { return migrations_; }
  const PredictorModel& model() const { return model_; }
  const SmartBalanceConfig& config() const { return cfg_; }

  /// The most recent characterization matrices (empty before first pass).
  const CharacterizationMatrices& last_matrices() const { return last_mx_; }

  /// Online adaptation layer (null unless cfg.adaptation enables a tier).
  const OnlineAdapter* adapter() const { return adapter_.get(); }

  /// The balance phase's annealer (one shard unless cfg.sharding says K).
  const ShardedBalancer& sharded() const { return sharded_; }

  /// Fault-resilience introspection.
  const fault::FaultInjector* injector() const { return injector_.get(); }
  const SensingHealthStats& sensing_health() const { return sensing_.health(); }
  bool defenses_enabled() const { return sensing_.defended(); }
  std::uint64_t degraded_passes() const { return degraded_passes_; }
  std::uint64_t faults_detected() const { return faults_detected_; }
  std::uint64_t faults_absorbed() const { return faults_absorbed_; }

  // --- Telemetry-plane signals (sim::TimeseriesSampler) ---
  /// The most recent pass ran in degraded (vanilla-fallback) mode.
  bool degraded_active() const { return degraded_prev_; }
  /// SA accepted-worse fraction of the most recent optimized pass
  /// (0 before the first pass or when the pass had no iterations).
  double last_accept_rate() const { return last_sa_accept_rate_; }

 private:
  const arch::Platform& platform_;
  PredictorModel model_;
  SmartBalanceConfig cfg_;
  std::unique_ptr<BalanceObjective> objective_;
  SensingSubsystem sensing_;
  /// The annealer, for the policy's lifetime: its scratch arenas (Ψ slots,
  /// per-core sums, occupancy matrix, allocations) are reused every epoch —
  /// re-seeded per pass, never re-allocated.
  ShardedBalancer sharded_;

  std::uint64_t passes_ = 0;
  RunningStats sense_ns_;
  RunningStats predict_ns_;
  RunningStats optimize_ns_;
  RunningStats migrations_;
  CharacterizationMatrices last_mx_;
  /// Pass of each thread's latest migration; entries older than
  /// migration_cooldown_epochs are pruned every pass.
  std::unordered_map<ThreadId, std::uint64_t> migrated_at_pass_;

  /// Online predictor adaptation (null when cfg.adaptation is all-off).
  std::unique_ptr<OnlineAdapter> adapter_;
  /// One forecast per thread for the audit recorder and the adapter, and
  /// the next pass's one join of them against its sensing.
  obs::ForecastLog forecast_log_;

  /// Fault injection (null when the plan is empty) and graceful degradation.
  std::unique_ptr<fault::FaultInjector> injector_;
  os::VanillaBalancer fallback_;
  std::uint64_t degraded_passes_ = 0;
  /// Previous pass ran degraded (for enter/exit trace transitions).
  bool degraded_prev_ = false;
  std::uint64_t faults_detected_ = 0;
  std::uint64_t faults_absorbed_ = 0;
  /// Injector total at the last audited pass (per-epoch delta attribution).
  std::uint64_t audit_faults_prev_ = 0;
  /// accepted_worse / iterations of the most recent SA result.
  double last_sa_accept_rate_ = 0;
};

}  // namespace sb::core
