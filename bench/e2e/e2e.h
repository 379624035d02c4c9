// Shared declarations of the end-to-end benchmark (sb_e2e).
//
// A workload is a fixed set of simulations built from --seed. One *pass*
// sets every simulation up, runs it through the library's public API and
// collects the results; the harness repeats passes for --seconds and reports
// medians of host-time metrics. Simulated metrics are a pure function of the
// seed, so every pass of one run must reproduce the same digest.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fleet/fleet.h"
#include "obs/trace.h"
#include "sim/metrics.h"

namespace sb::e2e {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Host-time end-to-end metrics of the single-node workloads are reported
/// at the speed of the machine the bounds were calibrated on (an "Intel(R)
/// Xeon(R) Processor", 4 vCPUs, where one yardstick_s() took 1.9 ms). Each
/// pass samples the yardstick before every run and once at its end, and its
/// host times are scaled by kYardstickRefS / mean(samples): drift that slows
/// the yardstick and the simulator alike (clock frequency, co-tenant load)
/// cancels. Fleet passes take no samples and keep raw wall time: in a slow
/// phase that stretched the yardstick by 1.2-1.7x, the fleet slowed by
/// under 1.15x, so scaling would have over-corrected it.
inline constexpr double kYardstickRefS = 1.9e-3;

/// Wall time of a fixed integer loop (2e6 splitmix64 steps) that touches no
/// library code, so no change to the simulator can move it.
double yardstick_s();

/// Bench-side spans around calls into the library. Kept in memory and
/// written once, as a Chrome trace, through the obs layer's own exporter.
class Spans {
 public:
  Spans();
  void add(std::string_view name, Clock::time_point t0, Clock::time_point t1);
  /// Spans after this call belong to the next pass (the trace's epoch id).
  void next_pass() { ++pass_; }
  void write(const std::string& path) const;

 private:
  obs::EpochTracer tracer_;
  Clock::time_point origin_;
  std::uint64_t pass_ = 0;
};

/// Runs fn() and returns its wall time in seconds; records a span when
/// `spans` is non-null.
template <class F>
double timed(Spans* spans, std::string_view name, F&& fn) {
  const auto t0 = Clock::now();
  fn();
  const auto t1 = Clock::now();
  if (spans != nullptr) spans->add(name, t0, t1);
  return seconds_between(t0, t1);
}

/// One simulation of a pass: a single node, or a whole fleet.
struct Arm {
  bool smart = false;  // SmartBalance balances the node(s); else vanilla
  double host_s = 0;   // wall time of run()
  double sim_ms = 0;   // simulated window
  /// Final metrics of every node (one entry for a single-node arm).
  std::vector<sim::SimulationResult> nodes;
  /// Raw wake-to-run samples of a single-node arm.
  std::vector<std::uint64_t> wake_ns;
  /// Fleet-level result (its node_results moved into `nodes`).
  std::optional<fleet::FleetResult> fleet;

  double inst_per_joule() const;
  /// Simulated node-milliseconds: the window times the node count.
  double node_ms() const { return sim_ms * static_cast<double>(nodes.size()); }
};

/// One repetition of a workload.
struct Pass {
  double train_s = 0;     // predictor training (set-up)
  double populate_s = 0;  // building and populating simulations (set-up)
  double measured_s = 0;  // the run() calls, plus exports where written
  double export_s = 0;    // export writes (inside measured_s)
  std::uint64_t export_bytes = 0;
  double wall_s = 0;      // the whole pass, harness work included
  /// (vanilla, smartbalance) pairs in workload order.
  std::vector<Arm> arms;
  /// yardstick_s() samples taken before every arm and after the last
  /// (none for fleet passes).
  std::vector<double> yard_s;

  double setup_s() const { return train_s + populate_s; }
  /// Factor that converts this pass's host times to reference speed (1
  /// without samples).
  double host_scale() const;
  double sim_ms() const;
  /// FNV-1a over every simulated output the pass produced.
  std::uint64_t digest() const;
};

struct PassMode {
  bool metrics = false;     // metrics registry on (traced passes)
  bool parallel = false;    // fleet nodes stepped on min(4, nproc) threads
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Counts operations (simulations and output checks) and names failures.
class Ledger {
 public:
  bool check(bool ok, const std::string& what);
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Sets up and runs every simulation of the workload once.
  virtual Pass run_pass(const PassMode& mode, Spans* spans) = 0;
  /// Simulated metrics particular to this workload (printed, not gated).
  virtual Metrics info(const Pass& pass) const = 0;
  /// Per-layer numbers that need work outside the passes (traced runs):
  /// timed model loops, the stepping-drift probe, and workload extras.
  /// An entry replaces the traced passes' metric of the same name.
  virtual Metrics probe(const std::vector<Pass>& untraced,
                        const std::vector<Pass>& traced, Ledger& ledger,
                        Spans* spans) = 0;
};

const std::vector<std::string>& workload_names();
/// Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, bool smoke,
                                        const std::string& out_dir);

/// Layer attribution of one traced pass (the metrics registry was on).
Metrics layer_metrics(const Pass& pass);

double median(std::vector<double> v);

}  // namespace sb::e2e
