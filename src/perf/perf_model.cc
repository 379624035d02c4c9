#include "perf/perf_model.h"

#include <algorithm>

namespace sb::perf {

PerfModel::PerfModel(const arch::Platform& platform) : platform_(platform) {
  platform_.validate();
  peak_ipc_by_type_.reserve(static_cast<std::size_t>(platform_.num_types()));
  for (CoreTypeId t = 0; t < platform_.num_types(); ++t) {
    peak_ipc_by_type_.push_back(model_.peak_ipc(platform_.params_of_type(t)));
  }
}

PerfBreakdown PerfModel::evaluate(const workload::WorkloadProfile& profile,
                                  CoreId c, double mem_latency_ns,
                                  double warmup_factor,
                                  double freq_mhz_override) const {
  return model_.evaluate(profile, platform_.params_of(c), mem_latency_ns,
                         warmup_factor, freq_mhz_override);
}

PerfBreakdown PerfModel::evaluate_on_type(
    const workload::WorkloadProfile& profile, CoreTypeId t,
    double mem_latency_ns, double warmup_factor,
    double freq_mhz_override) const {
  return model_.evaluate(profile, platform_.params_of_type(t), mem_latency_ns,
                         warmup_factor, freq_mhz_override);
}

double PerfModel::peak_ipc(CoreTypeId t) const {
  return peak_ipc_by_type_.at(static_cast<std::size_t>(t));
}

void PerfModel::accumulate_counters(HpcCounters& c, const PerfBreakdown& b,
                                    const workload::WorkloadProfile& profile,
                                    double insts, double cycles) {
  if (insts <= 0 || cycles <= 0) return;
  const double busy = std::min(cycles, insts * b.cpi_base);
  c.cy_busy += round_count(busy);
  c.cy_idle += round_count(cycles - busy);

  const double mem = insts * profile.mem_share;
  const double br = insts * profile.branch_share;
  c.inst_total += round_count(insts);
  c.inst_mem += round_count(mem);
  c.inst_branch += round_count(br);
  c.branch_mispred += round_count(br * b.mr_branch);
  c.l1i_access += round_count(insts);
  c.l1i_miss += round_count(insts * b.mr_l1i);
  c.l1d_access += round_count(mem);
  c.l1d_miss += round_count(mem * b.mr_l1d);
  c.itlb_access += round_count(insts);
  c.itlb_miss += round_count(insts * b.mr_itlb);
  c.dtlb_access += round_count(mem);
  c.dtlb_miss += round_count(mem * b.mr_dtlb);
}

}  // namespace sb::perf
