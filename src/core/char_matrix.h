// The throughput and power characterization matrices S(k) and P(k)
// (Eqs. 2 & 3): row i = thread t_i, column j = core c_j. The column for the
// core a thread actually ran on holds the *measured* value; every other
// column is filled by the cross-core-type predictor (paper §4.2.2,
// "values that are unavailable are predicted").
//
// Units: S holds GIPS (10^9 instructions/s) so that objective values stay
// in a numerically comfortable range for the fixed-point acceptance path.
#pragma once

#include <vector>

#include "arch/dvfs.h"
#include "arch/platform.h"
#include "common/matrix.h"
#include "core/features.h"
#include "core/predictor.h"

namespace sb::core {

struct CharacterizationMatrices {
  Matrix s;                      // m×n predicted/measured GIPS
  Matrix p;                      // m×n predicted/measured watts
  std::vector<ThreadId> tids;    // row → thread
  std::vector<CoreId> current;   // row → core the thread is currently on

  std::size_t num_threads() const { return tids.size(); }
  std::size_t num_cores() const { return s.cols(); }
};

/// Builds S and P for the given epoch observations.
///
/// `core_opps` (optional, indexed by CoreId) supplies each core's *current*
/// DVFS operating point; predictions then target that point — the FR
/// feature and the GIPS conversion use the actual frequency, and predicted
/// power is scaled by the V²f dynamic-power law relative to nominal (a
/// slight overestimate of low-V savings on the leakage share, documented
/// in DESIGN.md). Without it, all cores are assumed at nominal.
CharacterizationMatrices build_characterization(
    const std::vector<ThreadObservation>& observations,
    const PredictorModel& predictor, const arch::Platform& platform,
    const std::vector<arch::OperatingPoint>* core_opps = nullptr);

}  // namespace sb::core
