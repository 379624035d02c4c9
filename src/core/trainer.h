// Offline predictor training (the paper's "standard linear regression using
// the least squares method", §4.2.2) and prediction-error evaluation
// (Fig. 6 / Table 4).
//
// Profiling runs are emulated by evaluating the mechanistic models for each
// training workload on each core type and synthesizing noisy counter
// observations — the same information a real profiling campaign on the
// gem5 platform produced for the authors. Training never reads model
// internals, only observable (counters, sensed power) quantities.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/predictor.h"
#include "core/sensing.h"
#include "perf/perf_model.h"
#include "power/power_model.h"
#include "workload/profile.h"

namespace sb::core {

class PredictorTrainer {
 public:
  /// The profile jitter, ridge, profiling length and the training
  /// memory latencies are constants in trainer.cc.
  struct Config {
    int replicas = 8;              // jittered copies of each profile
    double counter_noise = 0.005;  // observation noise during profiling
    std::uint64_t seed = 7;
    /// Frequency ratios (relative to nominal) sampled during training. The
    /// default trains at nominal only (the paper's fixed-V/f setting); add
    /// ratios (e.g. {0.4, 0.7, 1.0}) when the runtime system uses DVFS so
    /// the FR feature sees real variation.
    std::vector<double> training_freq_ratios = {1.0};
  };

  PredictorTrainer(const perf::PerfModel& perf, const power::PowerModel& power)
      : PredictorTrainer(perf, power, Config()) {}
  PredictorTrainer(const perf::PerfModel& perf, const power::PowerModel& power,
                   Config cfg);

  /// Trains Θ for every ordered core-type pair and the per-type power
  /// interpolation from the given workload set.
  PredictorModel train(
      const std::vector<workload::WorkloadProfile>& profiles) const;

  struct ProfileError {
    std::string name;
    double perf_err_pct = 0;   // mean |Δipc| / ipc over all type pairs
    double power_err_pct = 0;  // mean |Δp| / p
  };
  struct ErrorReport {
    std::vector<ProfileError> per_profile;
    double avg_perf_err_pct = 0;
    double avg_power_err_pct = 0;
  };

  /// Prediction error of `model` on `profiles` (fresh noisy observations).
  ErrorReport evaluate(
      const PredictorModel& model,
      const std::vector<workload::WorkloadProfile>& profiles) const;

  /// Fig. 6 methodology: for each benchmark, train on all *other*
  /// benchmarks and evaluate on the held-out one.
  ErrorReport leave_one_out(
      const std::vector<std::pair<std::string,
                                  std::vector<workload::WorkloadProfile>>>&
          by_benchmark) const;

  /// Memory latency of the nominal operating point.
  static constexpr double kNominalMemLatencyNs = 80.0;
  /// Synthesizes a (noisy) profiling observation of `profile` on `src`;
  /// `freq_mhz` > 0 profiles the source core at a non-nominal DVFS point.
  ThreadObservation synthesize_observation(
      const workload::WorkloadProfile& profile, CoreTypeId src, Rng& rng,
      double mem_latency_ns = kNominalMemLatencyNs,
      double freq_mhz = 0.0) const;

  /// All phase profiles of the benchmark library (PARSEC + x264 + IMB).
  static std::vector<workload::WorkloadProfile> default_training_profiles();
  /// The same grouped per benchmark, for leave-one-out evaluation.
  static std::vector<
      std::pair<std::string, std::vector<workload::WorkloadProfile>>>
  profiles_by_benchmark();

  const Config& config() const { return cfg_; }

 private:
  const perf::PerfModel& perf_;
  const power::PowerModel& power_;
  Config cfg_;
};

}  // namespace sb::core
