// Fleet configuration and the sbsim `--fleet=N[:policy[:rate]]` grammar.
//
// Fields per common/spec.h: a compact colon-separated spec covers the knobs
// a CLI user reaches for (node count, dispatch policy, mean arrival rate);
// everything else — quantum, duration, catalog, consolidation tuning — is
// an API field the harnesses set directly. Fleet observability is the same
// obs::ObsConfig a single-node run takes. parse() throws
// std::invalid_argument with a message naming the offending token, and
// canonical() round-trips through parse() bit for bit.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.h"
#include "obs/sink.h"

namespace sb::fleet {

/// Fleet-level job placement policies (see fleet/dispatch.h).
enum class DispatchPolicy { kRoundRobin, kLeastLoaded, kEnergyAware };

/// Accepts the canonical names ("rr", "least", "energy") plus the common
/// long spellings; throws std::invalid_argument otherwise.
DispatchPolicy dispatch_policy_from(const std::string& name);

struct FleetConfig {
  // --- CLI grammar fields: "N[:policy[:rate]]" ---
  int nodes = 4;
  DispatchPolicy policy = DispatchPolicy::kEnergyAware;
  /// Long-run mean job arrival rate for the whole fleet (jobs/second). The
  /// stream's burst and Zipf shape are workload/arrival.h's defaults.
  double rate_hz = 300.0;

  // --- API knobs (not part of the grammar) ---
  /// Simulated window; jobs still queued or running at the end are counted
  /// as dispatched/arrived but not completed.
  TimeNs duration = milliseconds(1500);
  /// Dispatch cadence: arrivals are admitted and placed at every quantum
  /// boundary, and nodes advance in lockstep quanta between boundaries.
  TimeNs quantum = milliseconds(5);
  std::uint64_t seed = 1234;
  /// Worker threads for the per-quantum node stepping (0 = SB_JOBS env or
  /// hardware concurrency). Results are identical for any value.
  int step_jobs = 0;
  /// Per-node balancing policy: "smartbalance" or "vanilla".
  std::string node_policy = "smartbalance";
  /// Energy-aware placement: a node is saturated (ineligible) once its
  /// live fleet threads would exceed load_cap * cores.
  double load_cap = 2.0;
  /// Relative energy surcharge for waking an idle node — the consolidation
  /// bias that keeps idle nodes drainable.
  double consolidation_bias = 0.25;
  /// Non-empty: replace the MMPP arrival clock with a scheduler-trace
  /// replay (workload/sched_replay.h) — spawn events become job arrivals at
  /// their traced timestamps (job class = stable hash of the task name into
  /// the catalog), looping the trace by its span until the window closes.
  /// Set via sbsim --fleet-arrivals=replay:<file>.
  std::string arrival_replay;
  /// Fleet-level observability: fleet.quantum spans and fleet.dispatch
  /// instants (trace), job latency histograms (metrics), the continuous
  /// telemetry plane sampling the fleet — and, with node_obs, every node —
  /// at its window of simulated time (timeseries), and SLO burn-rate
  /// objectives over the fleet's sampled signals (slo, implies timeseries).
  /// Exports stay byte-identical across step_jobs worker counts. `audit`
  /// must stay off: the fleet has no balancer of its own to audit.
  obs::ObsConfig obs;
  /// Also collect each node's metrics registry (merged into exports).
  bool node_obs = false;

  /// Parses "N[:policy[:rate]]", e.g. "8", "8:rr", "8:energy:450".
  static FleetConfig parse(const std::string& text);

  /// The spec that parse() reads back to the grammar fields, bit for bit.
  std::string canonical() const;

  /// Throws std::invalid_argument on out-of-range fields.
  void validate() const;
};

}  // namespace sb::fleet
