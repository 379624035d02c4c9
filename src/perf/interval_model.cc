#include "perf/interval_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace sb::perf {

workload::WorkloadProfile peak_probe_profile() {
  workload::WorkloadProfile p;
  p.name = "peak_probe";
  p.ilp = 6.0;
  p.mem_share = 0.20;
  p.branch_share = 0.10;
  p.mispredict_rate = 0.005;
  p.footprint_i_kb = 4.0;
  p.footprint_d_kb = 8.0;
  p.locality_alpha = 1.5;
  p.mr_l1i_ref = 0.001;
  p.mr_l1d_ref = 0.010;
  p.mr_itlb_ref = 0.0001;
  p.mr_dtlb_ref = 0.0005;
  p.l2_miss_ratio = 0.20;
  p.mlp = 3.0;
  p.activity = 1.2;
  p.validate();
  return p;
}

PerfBreakdown IntervalModel::evaluate(const workload::WorkloadProfile& wp,
                                      const arch::CoreParams& core,
                                      double mem_latency_ns,
                                      double warmup_factor,
                                      double freq_mhz_override) const {
  return evaluate(precompute(wp, core), wp, core, mem_latency_ns,
                  warmup_factor, freq_mhz_override);
}

IntervalModel::ProfileTerms IntervalModel::precompute(
    const workload::WorkloadProfile& wp, const arch::CoreParams& core) const {
  ProfileTerms out;
  const double width = core.issue_width;
  out.width = width;

  // --- Dispatch-limited base throughput -------------------------------
  // A wide core only sustains its width if the ROB and IQ can hold enough
  // in-flight work; the saturating exponentials model that window pressure.
  const double rob_eff =
      1.0 - std::exp(-static_cast<double>(core.rob_size) /
                     (kRobFillPerSlot * width));
  const double iq_eff =
      1.0 - std::exp(-static_cast<double>(core.iq_size) /
                     (kIqFillPerSlot * width));
  const double sustain_width = width * rob_eff * iq_eff;
  const double base_ipc = std::min(sustain_width, wp.ilp);
  out.cpi_base = 1.0 / base_ipc;

  // --- Event rates on this core, before the warmup multiply -------------
  out.mr_l1i = arch::cache_miss_rate(wp.mr_l1i_ref, wp.footprint_i_kb,
                                     core.l1i_kb, wp.locality_alpha);
  out.mr_l1d = arch::cache_miss_rate(wp.mr_l1d_ref, wp.footprint_d_kb,
                                     core.l1d_kb, wp.locality_alpha);
  out.mr_itlb =
      arch::tlb_miss_rate(wp.mr_itlb_ref, wp.footprint_i_kb, core.tlb_entries);
  out.mr_dtlb =
      arch::tlb_miss_rate(wp.mr_dtlb_ref, wp.footprint_d_kb, core.tlb_entries);
  out.mr_branch = std::min(0.5, wp.mispredict_rate * core.predictor_quality);

  // Memory-level parallelism is bounded by the load-queue capacity: small
  // in-order cores cannot overlap misses the way a Huge core can.
  const double mlp_cap = 1.0 + static_cast<double>(core.lq_size) / 16.0;
  out.mlp_eff = std::clamp(wp.mlp, 1.0, mlp_cap);

  // Branch misprediction: pipeline flush plus front-end refill.
  out.cpi_branch = wp.branch_share * out.mr_branch *
                   (static_cast<double>(core.pipeline_depth) +
                    kRefillPenalty * width);
  return out;
}

PerfBreakdown IntervalModel::evaluate(const ProfileTerms& terms,
                                      const workload::WorkloadProfile& wp,
                                      const arch::CoreParams& core,
                                      double mem_latency_ns,
                                      double warmup_factor,
                                      double freq_mhz_override) const {
  if (!std::isfinite(mem_latency_ns) || mem_latency_ns <= 0) {
    throw std::invalid_argument(
        "IntervalModel: memory latency must be finite and positive");
  }
  warmup_factor = std::max(1.0, warmup_factor);

  PerfBreakdown out;
  out.cpi_base = terms.cpi_base;
  out.mr_l1i = std::min(1.0, terms.mr_l1i * warmup_factor);
  out.mr_l1d = std::min(1.0, terms.mr_l1d * warmup_factor);
  out.mr_itlb = std::min(1.0, terms.mr_itlb * warmup_factor);
  out.mr_dtlb = std::min(1.0, terms.mr_dtlb * warmup_factor);
  out.mr_branch = terms.mr_branch;

  // --- Penalty components ----------------------------------------------
  const double freq_ghz =
      freq_mhz_override > 0 ? freq_mhz_override / 1000.0 : core.freq_ghz();
  const double mem_latency_cyc = mem_latency_ns * freq_ghz;

  // Instruction-side misses stall the front end; mostly unhidden.
  out.cpi_l1i = out.mr_l1i * kL2LatencyCyc;

  // Data-side: L2 hits partially hidden by OoO issue; memory misses hidden
  // by MLP overlap.
  out.cpi_l1d = wp.mem_share * out.mr_l1d *
                (kL2LatencyCyc / terms.mlp_eff +
                 wp.l2_miss_ratio * mem_latency_cyc / terms.mlp_eff);

  out.cpi_branch = terms.cpi_branch;

  // TLB walks on both sides.
  out.cpi_tlb =
      (out.mr_itlb + wp.mem_share * out.mr_dtlb) * kTlbWalkCyc;

  out.ipc = std::min(terms.width, 1.0 / out.total_cpi());

  out.mem_misses_per_inst =
      wp.mem_share * out.mr_l1d * wp.l2_miss_ratio + 0.3 * out.mr_l1i;
  return out;
}

double IntervalModel::peak_ipc(const arch::CoreParams& core) const {
  return evaluate(peak_probe_profile(), core).ipc;
}

}  // namespace sb::perf
