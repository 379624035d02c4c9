// The throughput and power characterization matrices S(k) and P(k)
// (Eqs. 2 & 3): row i = thread t_i, and logically column j = core c_j. The
// column for the core a thread actually ran on holds the *measured* value;
// every other column is filled by the cross-core-type predictor (paper
// §4.2.2, "values that are unavailable are predicted").
//
// Storage is per core class, not per core: a cell depends on its core only
// through the core's type, effective frequency and power scale, so the
// cores sharing that triple (one class) share one column. S and P are
// m × k with k classes (4 on scaled:32 with DVFS off, more when operating
// points differ within a type), and `column_of` maps each core to its
// class's column. Every reader reaches a (thread, core) cell through that
// map — gips()/watts() here, or the `columns` argument of
// SaOptimizer::optimize and ShardedBalancer::balance.
//
// Units: S holds GIPS (10^9 instructions/s) so that objective values stay
// in a numerically comfortable range for the fixed-point acceptance path.
#pragma once

#include <cstddef>
#include <vector>

#include "arch/dvfs.h"
#include "arch/platform.h"
#include "common/matrix.h"
#include "core/features.h"
#include "core/predictor.h"

namespace sb::core {

struct CharacterizationMatrices {
  Matrix s;  // m×k predicted/measured GIPS, one column per core class
  Matrix p;  // m×k predicted/measured watts, one column per core class
  /// core → its class's column of s and p. Columns are numbered in order
  /// of their lowest core, so column_of[0] == 0 and each core's column is
  /// at most one past every column before it.
  std::vector<std::size_t> column_of;
  std::vector<ThreadId> tids;    // row → thread
  std::vector<CoreId> current;   // row → core the thread is currently on

  std::size_t num_threads() const { return tids.size(); }
  std::size_t num_cores() const { return column_of.size(); }

  /// S and P of thread `row` on core `c`.
  double gips(std::size_t row, CoreId c) const {
    return s.at(row, column_of[static_cast<std::size_t>(c)]);
  }
  double watts(std::size_t row, CoreId c) const {
    return p.at(row, column_of[static_cast<std::size_t>(c)]);
  }
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
