// Facade over the interval model for a concrete platform, plus hardware
// counter synthesis. This is the boundary between "what the silicon does"
// (ground truth) and "what the OS can observe" (counters).
#pragma once

#include <vector>

#include "arch/platform.h"
#include "perf/counters.h"
#include "perf/interval_model.h"

namespace sb::perf {

class PerfModel {
 public:
  explicit PerfModel(const arch::Platform& platform);

  /// Evaluates `profile` on physical core `c`; `freq_mhz_override` > 0
  /// evaluates at a non-nominal DVFS operating point.
  PerfBreakdown evaluate(const workload::WorkloadProfile& profile, CoreId c,
                         double mem_latency_ns = 80.0,
                         double warmup_factor = 1.0,
                         double freq_mhz_override = 0.0) const;

  /// Evaluates `profile` on core *type* `t` (used by offline profiling);
  /// `freq_mhz_override` > 0 evaluates at a non-nominal DVFS point.
  PerfBreakdown evaluate_on_type(const workload::WorkloadProfile& profile,
                                 CoreTypeId t, double mem_latency_ns = 80.0,
                                 double warmup_factor = 1.0,
                                 double freq_mhz_override = 0.0) const;

  /// Cached peak IPC per core type (Table 2 "Peak Throughput" analogue).
  double peak_ipc(CoreTypeId t) const;

  const arch::Platform& platform() const { return platform_; }
  const IntervalModel& interval_model() const { return model_; }

  /// Adds the events implied by executing `insts` instructions over
  /// `cycles` core cycles with behaviour `b` into `c`. Busy cycles are the
  /// dispatch-limited share (insts × cpi_base); the remainder of the active
  /// cycles are stalls (idle).
  static void accumulate_counters(HpcCounters& c, const PerfBreakdown& b,
                                  const workload::WorkloadProfile& profile,
                                  double insts, double cycles);

 private:
  const arch::Platform& platform_;
  IntervalModel model_;
  std::vector<double> peak_ipc_by_type_;
};

}  // namespace sb::perf
