// Workload characterization.
//
// A WorkloadProfile is the *intrinsic*, microarchitecture-independent
// description of what a thread does: its instruction mix, available ILP,
// working-set footprints and locality, branch predictability, and memory-
// level parallelism. The mechanistic performance model (sb::perf) maps a
// profile onto a concrete core type to produce IPC and event rates — the
// same role PARSEC binaries played on gem5 in the paper. The load balancer
// NEVER sees profiles; it sees only the hardware counters they induce.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace sb::workload {

struct WorkloadProfile {
  std::string name;

  /// Dependency-limited IPC on an ideal (infinitely wide) machine.
  double ilp = 2.0;
  /// Fraction of committed instructions that are loads/stores (I_msh).
  double mem_share = 0.25;
  /// Fraction of committed instructions that are branches (I_bsh).
  double branch_share = 0.15;
  /// Intrinsic per-branch misprediction probability on a reference
  /// predictor; scaled by each core type's predictor_quality.
  double mispredict_rate = 0.03;

  /// Instruction / data working-set footprints.
  double footprint_i_kb = 16.0;
  double footprint_d_kb = 64.0;
  /// Cache locality power-law exponent (higher = more reuse-friendly).
  double locality_alpha = 1.2;

  /// Per-access miss rates when the working set fully overwhelms the cache
  /// (pressure = 1); see sb::arch::cache_miss_rate.
  double mr_l1i_ref = 0.010;
  double mr_l1d_ref = 0.060;
  double mr_itlb_ref = 0.0005;
  double mr_dtlb_ref = 0.004;

  /// Fraction of L1D misses that also miss the private L2 and go to memory.
  double l2_miss_ratio = 0.30;
  /// Memory-level parallelism: average overlapped outstanding misses.
  double mlp = 1.5;

  /// Dynamic-power activity scale relative to a nominal workload (SIMD-heavy
  /// code > 1, stall-heavy code < 1).
  double activity = 1.0;

  /// Throws std::invalid_argument if any field is outside its sane range.
  void validate() const;

  /// Returns a copy with multiplicative jitter applied to the continuous
  /// fields (used to differentiate sibling threads of one process).
  WorkloadProfile jittered(double relative_sigma, class JitterSource& src) const;
};

/// Injectable randomness for profile jittering (avoids coupling the profile
/// type to a concrete RNG).
class JitterSource {
 public:
  virtual ~JitterSource() = default;
  /// A sample from N(0, 1).
  virtual double gaussian() = 0;
};

/// The JitterSource over an sb::Rng (benchmark spawning, trainer replicas).
class RngJitter final : public JitterSource {
 public:
  explicit RngJitter(Rng& rng) : rng_(rng) {}
  double gaussian() override { return rng_.gaussian(); }

 private:
  Rng& rng_;
};

/// A contiguous program phase: execute `instructions` with `profile`
/// characteristics, then move to the next phase (cyclically).
struct Phase {
  WorkloadProfile profile;
  std::uint64_t instructions = 50'000'000;
};

/// The complete dynamic behaviour of one thread.
///
/// Threads cycle through `phases`. If `burst_instructions` is non-zero the
/// thread is *interactive*: after each burst it sleeps for roughly
/// `sleep_mean_ns` (uniform ±`sleep_jitter`), modeling the IO/think time of
/// the paper's interactive microbenchmarks. `total_instructions == 0` means
/// run until the simulation ends (throughput mode).
struct ThreadBehavior {
  std::string name;
  std::vector<Phase> phases;
  std::uint64_t total_instructions = 0;
  std::uint64_t burst_instructions = 0;
  TimeNs sleep_mean_ns = 0;
  double sleep_jitter = 0.3;
  int nice = 0;

  bool interactive() const { return burst_instructions > 0 && sleep_mean_ns > 0; }
  void validate() const;
};

}  // namespace sb::workload
