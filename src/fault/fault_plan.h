// Deterministic sensor/migration fault specification.
//
// SmartBalance is sensing-driven; real MPSoCs deliver imperfect telemetry:
// saturated and wrapped hardware counters, dropped or duplicated epoch
// samples, stuck and noisy power rails, rejected or delayed
// set_cpus_allowed_ptr calls, and transient whole-core sensor blackouts.
// A FaultPlan declares, per fault class, a per-epoch per-target rate plus a
// class-specific magnitude and persistence, and carries the seed that makes
// every injection a pure function of (seed, fault class, epoch, target) —
// so a faulty run is bit-identical across --jobs=N worker counts and
// replayable from the plan alone.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

namespace sb::fault {

enum class FaultClass : int {
  kCounterWrap = 0,   // a counter field wraps: delta reads as ~2^32
  kCounterSaturate,   // a counter field saturates at a small ceiling
  kSampleDrop,        // the thread's epoch sample is lost entirely
  kSampleDuplicate,   // the previous epoch's sample is delivered again
  kPowerStuck,        // a core's power rail repeats its previous reading
  kPowerNoise,        // gaussian noise on a core's rail: pollutes the
                      // per-core readout and every sample charged to it
  kMigrationDelay,    // migration lands one epoch late
  kMigrationReject,   // set_cpus_allowed_ptr analogue fails silently
  kCoreBlackout,      // whole-core sensor blackout for duration_epochs
};

inline constexpr int kNumFaultClasses = 9;

/// Short stable identifier ("wrap", "sat", "drop", ...) used by CLI specs
/// and stats reporting.
const char* fault_class_name(FaultClass cls);

/// Inverse of fault_class_name; returns false if `name` is unknown.
bool fault_class_from_name(const std::string& name, FaultClass* out);

struct FaultSpec {
  FaultClass cls = FaultClass::kCounterWrap;
  /// Per-epoch probability that one target (thread for counter/sample
  /// classes and migration classes, core for power/blackout classes) is hit.
  double rate = 0.0;
  /// Class-specific severity: gaussian sigma for kPowerNoise, saturation
  /// ceiling scale for kCounterSaturate (ceiling = magnitude * 2^24
  /// events); ignored by the binary classes.
  double magnitude = 1.0;
  /// Persistence of stateful faults (kCoreBlackout, kPowerStuck): a hit at
  /// epoch e keeps the target faulty through epoch e + duration_epochs - 1.
  int duration_epochs = 1;
};

class FaultPlan {
 public:
  FaultPlan() = default;

  std::uint64_t seed = 0xfa517u;

  /// True when no class has a positive rate — an empty plan injects
  /// nothing and is the contract for bit-identical golden figures.
  bool empty() const;

  const std::vector<FaultSpec>& specs() const { return specs_; }
  /// The spec for `cls`, or nullptr when the class is absent / zero-rate.
  const FaultSpec* spec_of(FaultClass cls) const;
  /// Adds (or replaces) the spec for spec.cls.
  void set(FaultSpec spec);

  /// Parses a compact CLI spec: comma-separated
  /// `class:rate[:magnitude[:duration]]` entries (fields per
  /// common/spec.h), e.g. "wrap:0.05,noise:0.02:3.0,blackout:0.01:1:4". A
  /// later entry for a class replaces the earlier one. An empty string
  /// yields an empty plan. Throws std::invalid_argument on malformed input.
  static FaultPlan parse(const std::string& text, std::uint64_t seed = 0xfa517u);

  /// Every sensor-facing class (wrap, sat, drop, dup, stuck, noise, delay,
  /// reject) at `rate`, plus blackout at rate/4 with a 3-epoch duration —
  /// the "r% per-epoch sensor-fault rate" operating point of the
  /// fig_fault_resilience sweep.
  static FaultPlan uniform(double rate, std::uint64_t seed = 0xfa517u);

  /// The spec that parse() reads back to these specs, bit for bit.
  std::string canonical() const;

 private:
  std::vector<FaultSpec> specs_;
};

}  // namespace sb::fault
