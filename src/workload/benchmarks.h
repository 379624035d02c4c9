// Benchmark library: PARSEC-like multithreaded workloads, the x264
// rate/input variants of Table 3, and the paper's 9 interactive
// microbenchmarks (IMB, §6: {H,M,L} throughput × {H,M,L} interactivity).
//
// Profiles are synthetic but their characterization vectors follow the
// published PARSEC characterization (Bienia et al., PACT'08): blackscholes
// and swaptions are small-footprint compute kernels, canneal and
// streamcluster are memory-bound with large working sets, x264's behaviour
// depends strongly on input and rate settings, etc. See DESIGN.md §2 for
// why this substitution preserves the balancer-visible surface.
#pragma once

#include <string>
#include <vector>

#include "common/rng.h"
#include "workload/profile.h"

namespace sb::workload {

/// A benchmark is a template from which N worker threads are spawned.
struct Benchmark {
  std::string name;
  /// Per-thread phase sequence (cycled at runtime).
  std::vector<Phase> phases;
  /// Instructions each thread retires before exiting; 0 = run forever.
  std::uint64_t per_thread_instructions = 0;
  /// Interactivity (0 = CPU-bound).
  std::uint64_t burst_instructions = 0;
  TimeNs sleep_mean_ns = 0;
  /// Sibling-thread heterogeneity: relative sigma of profile jitter.
  double thread_jitter = 0.05;

  /// Spawns `nthreads` worker ThreadBehaviors with jittered profiles.
  std::vector<ThreadBehavior> spawn(int nthreads, Rng& rng) const;
};

/// Interactivity / throughput levels for the IMB generator.
enum class Level { Low, Medium, High };

char level_letter(Level l);
Level level_from_letter(char c);

class BenchmarkLibrary {
 public:
  /// PARSEC-like benchmarks: blackscholes, bodytrack, canneal, dedup,
  /// ferret, fluidanimate, freqmine, streamcluster, swaptions, vips.
  static std::vector<std::string> parsec_names();

  /// x264 variants per Table 3: x264_{H,L}_{crew,bow}.
  static std::vector<std::string> x264_names();

  /// All nine IMB configurations: IMB_{H,M,L}T{H,M,L}I.
  static std::vector<std::string> imb_names();

  /// Looks up any benchmark by name (PARSEC, x264 variant, or IMB) in a
  /// library built once, on first use. Throws std::out_of_range for
  /// unknown names.
  static const Benchmark& get(const std::string& name);

  /// The interactive microbenchmark with the given knobs (paper §6):
  /// throughput controls load and burst size, interactivity controls the
  /// sleep/wait periods.
  static Benchmark imb(Level throughput, Level interactivity);
};

}  // namespace sb::workload
