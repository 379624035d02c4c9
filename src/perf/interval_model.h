// Mechanistic out-of-order core performance model (interval analysis).
//
// Plays the role gem5's cycle-accurate CPU models played in the paper: maps
// a workload's intrinsic characterization onto a concrete core type and
// produces IPC plus all per-event rates needed to synthesize hardware
// counters. The model follows the interval-analysis decomposition
// (Eyerman/Eeckhout): a dispatch-limited base CPI plus additive penalty
// terms for I-cache, D-cache, TLB and branch-misprediction events.
//
// Crucially for the reproduction, the model is *nonlinear* in the workload
// features (saturating structure terms, frequency-dependent memory-latency
// cycles, MLP clamping), so the paper's linear cross-core predictor (Eq. 8)
// exhibits realistic few-percent residuals rather than being trivially
// exact.
#pragma once

#include "arch/cache_model.h"
#include "arch/core_params.h"
#include "workload/profile.h"

namespace sb::perf {

/// Full output of one model evaluation.
struct PerfBreakdown {
  double ipc = 0;        // committed instructions per active cycle
  double cpi_base = 0;   // dispatch-limited component
  double cpi_l1i = 0;    // instruction-fetch miss component
  double cpi_l1d = 0;    // data miss component (L2 + memory)
  double cpi_branch = 0; // misprediction flush component
  double cpi_tlb = 0;    // page-walk component

  // Effective event rates on *this* core (after cache sizing, predictor
  // quality and warmup), used for counter synthesis:
  double mr_l1i = 0;    // per instruction fetch
  double mr_l1d = 0;    // per memory access
  double mr_branch = 0; // per branch
  double mr_itlb = 0;   // per instruction fetch
  double mr_dtlb = 0;   // per memory access

  /// L2->memory transactions per committed instruction (bus traffic).
  double mem_misses_per_inst = 0;

  double total_cpi() const {
    return cpi_base + cpi_l1i + cpi_l1d + cpi_branch + cpi_tlb;
  }
};

class IntervalModel {
 public:
  /// The terms of evaluate() that depend only on (profile, core type):
  /// window pressure and the base CPI, the miss rates before the warmup
  /// multiply, the branch term and the MLP clamp. The rest depend on the
  /// memory latency, the warmup factor and the frequency, which change
  /// from one dispatch to the next; evaluate(terms, ...) applies them.
  /// The split is exact: every expression keeps its operations and operand
  /// order (e.g. std::min(1.0, mr_l1i * warmup)) and each intermediate is
  /// an IEEE double either way, with no -ffast-math and no FMA contraction
  /// in the build. A caller that memoizes these terms per (profile, core
  /// type) therefore gets the same bits as the one-shot evaluate().
  struct ProfileTerms {
    double width = 0;       // issue width
    double cpi_base = 0;    // dispatch-limited CPI
    double mr_l1i = 0;      // miss rates on this core before the warmup
    double mr_l1d = 0;      //   multiply
    double mr_itlb = 0;
    double mr_dtlb = 0;
    double mr_branch = 0;   // per branch, after predictor quality
    double cpi_branch = 0;  // misprediction flush component
    double mlp_eff = 0;     // MLP clamped to the load-queue capacity
  };

  /// Evaluates `profile` on `core` with the given effective memory latency
  /// (shared-bus inflated) and cache-warmup multiplier (>= 1 right after a
  /// migration). `freq_mhz_override` > 0 evaluates the core at a DVFS
  /// operating point other than nominal (memory latency in *cycles* shrinks
  /// with the clock, so IPC rises slightly at lower frequencies). Throws
  /// std::invalid_argument unless the latency is finite and positive.
  /// Same as evaluate(precompute(profile, core), profile, core, ...).
  PerfBreakdown evaluate(const workload::WorkloadProfile& profile,
                         const arch::CoreParams& core,
                         double mem_latency_ns = 80.0,
                         double warmup_factor = 1.0,
                         double freq_mhz_override = 0.0) const;

  /// The (profile, core type) terms of evaluate().
  ProfileTerms precompute(const workload::WorkloadProfile& profile,
                          const arch::CoreParams& core) const;

  /// Completes `terms`, which precompute() returned for the same `profile`
  /// and `core`, with the latency, warmup and frequency terms.
  PerfBreakdown evaluate(const ProfileTerms& terms,
                         const workload::WorkloadProfile& profile,
                         const arch::CoreParams& core, double mem_latency_ns,
                         double warmup_factor,
                         double freq_mhz_override) const;

  /// Peak sustainable IPC of a core type: the model evaluated on the
  /// high-ILP, cache-resident probe workload (Table 2's "Peak Throughput"
  /// row was derived the same way from gem5 runs of tuned kernels).
  double peak_ipc(const arch::CoreParams& core) const;

 private:
  static constexpr double kL2LatencyCyc = 12.0;  // private L2 hit latency
  static constexpr double kTlbWalkCyc = 30.0;    // page-table walk
  /// ROB and IQ entries needed per dispatch slot to sustain full width.
  static constexpr double kRobFillPerSlot = 24;
  static constexpr double kIqFillPerSlot = 3.0;
  /// Front-end refill per mispredict, in multiples of the core's width.
  static constexpr double kRefillPenalty = 1.0;
};

/// The probe used for peak-throughput and peak-power calibration.
workload::WorkloadProfile peak_probe_profile();

}  // namespace sb::perf
