// Hardware performance counters (HPCs).
//
// Exactly the counter set the paper samples at every context switch (§4.1):
//   - cycle counters: cyBusy, cyIdle, cySleep
//   - instruction counters: I_total, I_mem, I_branch
//   - performance-event counters: branch mispredictions, L1I/L1D and
//     ITLB/DTLB misses+accesses
// plus the derived ratios used as the predictor's characterization vector:
//   I_msh, I_bsh, mr_b, mr_$i, mr_$d, mr_itlb, mr_dtlb.
#pragma once

#include <cmath>
#include <cstdint>

namespace sb::perf {

/// A modelled event count rounded to an integer: equal to
/// std::llround(std::max(0.0, v)) for every double, without the
/// out-of-line libm call. NaN and v <= 0 give 0. Below 2^52 the fraction
/// v - trunc(v) is exact, so rounding half away from zero is one compare;
/// from 2^52 up every double is an integer and std::llround takes over.
inline std::uint64_t round_count(double v) {
  if (!(v > 0.0)) return 0;
  if (v >= 0x1p52) return static_cast<std::uint64_t>(std::llround(v));
  const auto whole = static_cast<std::int64_t>(v);
  return static_cast<std::uint64_t>(whole) +
         (v - static_cast<double>(whole) >= 0.5 ? 1 : 0);
}

struct HpcCounters {
  // --- Cycle counters ---
  std::uint64_t cy_busy = 0;   // cycles doing useful dispatch/commit work
  std::uint64_t cy_idle = 0;   // stall cycles (misses, mispredictions)
  std::uint64_t cy_sleep = 0;  // quiescent cycles (core had nothing to run)

  // --- Instruction counters ---
  std::uint64_t inst_total = 0;
  std::uint64_t inst_mem = 0;     // committed loads + stores
  std::uint64_t inst_branch = 0;  // committed branches

  // --- Performance event counters ---
  std::uint64_t branch_mispred = 0;
  std::uint64_t l1i_access = 0;
  std::uint64_t l1i_miss = 0;
  std::uint64_t l1d_access = 0;
  std::uint64_t l1d_miss = 0;
  std::uint64_t itlb_access = 0;
  std::uint64_t itlb_miss = 0;
  std::uint64_t dtlb_access = 0;
  std::uint64_t dtlb_miss = 0;

  HpcCounters& operator+=(const HpcCounters& o);
  friend HpcCounters operator+(HpcCounters a, const HpcCounters& b) {
    return a += b;
  }

  void reset() { *this = HpcCounters{}; }

  /// The readout ceiling of a 32-bit hardware event register. Real PMCs are
  /// 32-48 bits wide; an epoch delta at or above this value is either a
  /// wraparound artefact or a saturated read, never a genuine count.
  static constexpr std::uint64_t k32BitCeiling = 0xFFFFFFFFull;

  /// Clamps every field to `ceiling` — the saturating-read model of a
  /// narrow event register (counts beyond the ceiling are lost).
  void saturate_fields(std::uint64_t ceiling);

  /// True when any field is at or above `ceiling`: the cheap plausibility
  /// screen the sensing layer runs before trusting an epoch delta.
  bool any_field_at_or_above(std::uint64_t ceiling) const;

  bool empty() const { return inst_total == 0 && cy_busy == 0 && cy_idle == 0; }

  // --- Derived characterization ratios (0 when the denominator is 0) ---
  double imsh() const { return ratio(inst_mem, inst_total); }
  double ibsh() const { return ratio(inst_branch, inst_total); }
  double mr_branch() const { return ratio(branch_mispred, inst_branch); }
  double mr_l1i() const { return ratio(l1i_miss, l1i_access); }
  double mr_l1d() const { return ratio(l1d_miss, l1d_access); }
  double mr_itlb() const { return ratio(itlb_miss, itlb_access); }
  double mr_dtlb() const { return ratio(dtlb_miss, dtlb_access); }

  /// Non-sleep cycles: the denominator of IPC per the paper
  /// (IPS_j = I_total * F / (cyBusy + cyIdle)).
  std::uint64_t active_cycles() const { return cy_busy + cy_idle; }

  /// Instructions per active cycle.
  double ipc() const { return ratio(inst_total, active_cycles()); }

 private:
  static double ratio(std::uint64_t num, std::uint64_t den) {
    return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
  }
};

}  // namespace sb::perf
