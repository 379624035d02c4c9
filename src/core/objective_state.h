// Incrementally maintained objective state for the SA optimizer and the
// exhaustive enumerator: per-core occupancy-weighted sums plus either
// additive terms (J = Σ term_j) or fractional contributions
// (J = Σnum_j / Σden_j), depending on the objective.
//
// The class is a template over the objective type so that the annealing
// inner loop dispatched for a built-in (final) objective class calls
// core_term / core_fraction non-virtually — the compiler inlines the term
// arithmetic into the loop. Instantiating with the BalanceObjective base
// keeps the generic virtual-dispatch path for custom objectives.
//
// The state's n cores are the problem's cores (the slot blocks of Ψ). Core
// j reads its S/P values from column columns[j], so per-class matrices
// (core/char_matrix.h) are read in place and a cached cell is (thread,
// class), not (thread, core); a caller with per-core matrices passes no
// map and core j reads column j. The objective sees cores[j], the physical
// core id, when the caller passes that map (a shard's sub-problem), and j
// otherwise.
//
// All storage lives in an ObjectiveScratch the caller owns, so a state can
// be re-initialized epoch after epoch without heap allocation once the
// scratch vectors have grown to the problem size.
#pragma once

#include <array>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/matrix.h"
#include "common/types.h"
#include "core/objective.h"

namespace sb::core {

/// Reusable backing storage for an ObjectiveState. Vectors are assign()ed or
/// resize()d on every reset, which reuses capacity across epochs.
struct ObjectiveScratch {
  std::vector<CoreSums> sums;                    // per-core running sums
  std::vector<std::array<double, 2>> contrib;    // per-core (num, den) terms
  /// m×k matrix of (weighted s, weighted p, occupancy) triplets, one per
  /// (thread, S/P column): a cell depends on its core only through the
  /// column, so every core of a class shares the class's cell. The three
  /// values a move reads for one cell are interleaved so the random-access
  /// hot path touches one cache line per cell, not one line in each of
  /// three separate matrices. A cell is computed the first time a state
  /// reads it: an anneal reads only the cells of the (thread, class) pairs
  /// its moves touch. With per-class S/P at 128 cores × 256 threads the
  /// whole matrix is 1k cells (24 KB) where a per-core one was 32k cells
  /// (768 KB, well past L2).
  std::vector<double> wspo;
  /// built[row·k + col] != 0 once cell (row, col) of wspo holds the current
  /// state's values; cleared by every state construction.
  std::vector<std::uint8_t> built;
};

/// Number of accepted moves between drift resyncs: `current += diff` and
/// the running Σnum/Σden accumulators drift in the last bits over tens of
/// thousands of incremental updates, so the optimizer recomputes the state
/// from the current allocation at this cadence (see SaOptimizer).
inline constexpr int kObjectiveResyncInterval = 4096;

/// Relative drift admissible between the incremental total and a full
/// recompute at the resync cadence; asserted in debug builds.
inline constexpr double kObjectiveDriftBound = 1e-6;

template <class Obj>
class ObjectiveState {
 public:
  /// Initializes the state for `allocation`. The occupancy-weighted s/p
  /// cells are computed on first read, so the add/remove hot path is loads
  /// and adds. `columns` (optional) maps each of the problem's cores to its
  /// column of `s` and `p`; null means core j is column j, and the problem
  /// has s.cols() cores. `cores` (optional, one entry per problem core)
  /// maps core j to the physical core the objective sees; null means core j
  /// is physical core j. `s`, `p`, `demand_gips`, `cores`, `columns` and
  /// `scratch` must outlive the state.
  ObjectiveState(ObjectiveScratch& scratch, const Matrix& s, const Matrix& p,
                 const Obj& objective, const std::vector<CoreId>& allocation,
                 const std::vector<double>* demand_gips = nullptr,
                 const std::vector<CoreId>* cores = nullptr,
                 const std::vector<std::size_t>* columns = nullptr)
      : sc_(scratch),
        obj_(objective),
        s_(s),
        p_(p),
        demand_(demand_gips != nullptr ? demand_gips->data() : nullptr),
        cores_(cores != nullptr ? cores->data() : nullptr),
        columns_(columns != nullptr ? columns->data() : nullptr),
        m_(s.rows()),
        n_(columns != nullptr ? columns->size() : s.cols()),
        k_(s.cols()),
        fractional_(objective.fractional()) {
    assert(cores == nullptr || cores->size() == n_);
    sc_.wspo.resize(3 * m_ * k_);
    sc_.built.assign(m_ * k_, 0);
    rebuild(allocation);
  }

  double total() const { return total_; }

  /// Occupancy of thread `row` on problem core `j` (core::occupancy of its
  /// demand; 1 without a demand vector).
  double occupancy(std::size_t row, std::size_t j) { return cell(row, j)[2]; }

  void add_thread(std::size_t row, CoreId c) {
    const auto j = static_cast<std::size_t>(c);
    assert(row < m_ && j < n_);
    const double* cell = this->cell(row, j);
    CoreSums& cs = sc_.sums[j];
    cs.gips += cell[0];
    cs.watts += cell[1];
    cs.load += cell[2];
    ++cs.nthreads;
  }

  void remove_thread(std::size_t row, CoreId c) {
    const auto j = static_cast<std::size_t>(c);
    assert(row < m_ && j < n_);
    const double* cell = this->cell(row, j);
    CoreSums& cs = sc_.sums[j];
    cs.gips -= cell[0];
    cs.watts -= cell[1];
    cs.load -= cell[2];
    --cs.nthreads;
  }

  /// Recomputes the contributions of the (at most two) cores touched by a
  /// move and returns the objective delta.
  double refresh_cores(CoreId a, CoreId b) {
    const double before = total_;
    recompute_contribution(static_cast<std::size_t>(a));
    if (b != a) recompute_contribution(static_cast<std::size_t>(b));
    recompute_total();
    return total_ - before;
  }

  /// Full recompute of sums, contributions and accumulators from
  /// `allocation`, reusing the cells built so far. O(m + n); used at
  /// construction and as the periodic drift resync.
  void rebuild(const std::vector<CoreId>& allocation) {
    sc_.sums.assign(n_, CoreSums{});
    for (std::size_t i = 0; i < allocation.size(); ++i) {
      add_thread(i, allocation[i]);
    }
    sc_.contrib.assign(n_, {0.0, 0.0});
    sum_num_ = 0.0;
    sum_den_ = 0.0;
    for (std::size_t j = 0; j < n_; ++j) recompute_contribution(j);
    recompute_total();
  }

 private:
  /// The cell of thread `row` on problem core `j`: u·s, u·p and u from
  /// core j's column, computed on the first read of that column.
  const double* cell(std::size_t row, std::size_t j) {
    const std::size_t col = columns_ != nullptr ? columns_[j] : j;
    const std::size_t k = row * k_ + col;
    double* c = &sc_.wspo[3 * k];
    if (sc_.built[k] == 0) [[unlikely]] {
      sc_.built[k] = 1;
      // Qualified: the member occupancy(row, j) would otherwise bind
      // through an implicit double -> size_t conversion.
      const double u =
          demand_ != nullptr ? core::occupancy(demand_[row], s_.at(row, col))
                             : 1.0;
      c[0] = u * s_.at(row, col);
      c[1] = u * p_.at(row, col);
      c[2] = u;
    }
    return c;
  }

  void recompute_contribution(std::size_t j) {
    const CoreId core = cores_ != nullptr ? cores_[j] : static_cast<CoreId>(j);
    if (fractional_) {
      sum_num_ -= sc_.contrib[j][0];
      sum_den_ -= sc_.contrib[j][1];
      sc_.contrib[j] = obj_.core_fraction(sc_.sums[j], core);
      sum_num_ += sc_.contrib[j][0];
      sum_den_ += sc_.contrib[j][1];
    } else {
      sum_num_ -= sc_.contrib[j][0];
      sc_.contrib[j] = {obj_.core_term(sc_.sums[j], core), 0.0};
      sum_num_ += sc_.contrib[j][0];
    }
  }

  void recompute_total() {
    total_ = fractional_ ? (sum_den_ > 0 ? sum_num_ / sum_den_ : 0.0)
                         : sum_num_;
  }

  ObjectiveScratch& sc_;
  const Obj& obj_;
  const Matrix& s_;
  const Matrix& p_;
  const double* const demand_;  // per-row demand; null = every row CPU-bound
  const CoreId* const cores_;         // core -> physical core; null = same
  const std::size_t* const columns_;  // core -> S/P column; null = same
  const std::size_t m_;
  const std::size_t n_;  // problem cores
  const std::size_t k_;  // S/P columns
  const bool fractional_;
  double sum_num_ = 0.0;
  double sum_den_ = 0.0;
  double total_ = 0.0;
};

}  // namespace sb::core
