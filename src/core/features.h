// The workload characterization vector X_ij of Eq. 8.
//
// Matches the Table 4 predictor columns exactly:
//   FR*, mr_$i, mr_$d, I_msh, I_bsh, mr_b, mr_itlb, mr_dtlb, ipc_src, const
// where FR is the source/destination frequency ratio and ipc_src is the
// thread's measured IPC on the core it actually ran on.
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "common/types.h"
#include "perf/counters.h"

namespace sb::core {

inline constexpr std::size_t kNumFeatures = 10;

/// Column names as printed in Table 4.
const std::array<std::string, kNumFeatures>& feature_names();

/// One thread's sensed characterization for an epoch, in OS-visible terms.
struct ThreadObservation {
  ThreadId tid = kInvalidThread;
  CoreId core = kInvalidCore;      // core it executed on (c_j)
  CoreTypeId core_type = -1;       // γ(c_j)
  double ipc = 0;                  // measured IPC on that core
  double ips = 0;                  // measured throughput (instructions/s)
  double freq_mhz = 0;             // frequency the measurement was taken at
                                   // (differs from nominal under DVFS)
  double power_w = 0;              // measured average power while running
  double util = 0;                 // PELT utilization
  TimeNs runtime = 0;              // time actually executed this epoch
  std::uint64_t instructions = 0;
  // Derived counter ratios:
  double imsh = 0;
  double ibsh = 0;
  double mr_branch = 0;
  double mr_l1i = 0;
  double mr_l1d = 0;
  double mr_itlb = 0;
  double mr_dtlb = 0;
  /// True if the thread executed long enough this epoch for the ratios to
  /// be statistically meaningful.
  bool measured = false;
};

/// Builds X_ij^T for predicting from the observation's core to a core
/// running at `freq_ratio` = F_src / F_dst.
std::array<double, kNumFeatures> make_features(const ThreadObservation& obs,
                                               double freq_ratio);

/// Replaces every non-finite (NaN/Inf) floating field of `o` with 0.
/// Bit-exact no-op on finite observations, so it is applied
/// unconditionally on the sensing path.
void sanitize_observation(ThreadObservation& o);

/// Verdict of the plausibility screen for an observation derived from raw
/// counters `c`. kImplausible marks data that cannot describe any real
/// execution (wrap artefacts, >8 GHz cycle rates, out-of-envelope ratios).
enum class PlausibilityVerdict { kPlausible, kImplausible };

PlausibilityVerdict check_plausibility(const ThreadObservation& o,
                                       const perf::HpcCounters& c);

}  // namespace sb::core
