// Fleet simulation: a rack of independent MPSoC nodes, each a full
// sim::Simulation driven in service mode, fed by one fleet-level dispatcher.
//
// The fleet layer owns three things the per-node simulator does not:
//   * a streaming job-arrival process (Zipf class popularity over a bursty
//     Poisson clock, see workload/arrival.h);
//   * a placement decision per job (fleet/dispatch.h) made from per-node
//     NodeView digests at every dispatch quantum;
//   * fleet-wide accounting — energy efficiency across nodes and exact
//     job-latency tails (queueing, wake-to-run, sojourn).
//
// Determinism contract: every stochastic component (arrival process, node
// spawn jitter, predictor synthesis) owns a private seeded Rng; nodes are
// stepped with common::parallel_for but each quantum writes only node-local
// state, so results are bit-identical for any --jobs worker count and the
// arrival stream is identical across dispatch policies (policy comparisons
// see the same jobs).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "arch/platform.h"
#include "common/percentile.h"
#include "fleet/dispatch.h"
#include "fleet/fleet_config.h"
#include "obs/sink.h"
#include "sim/metrics.h"
#include "workload/arrival.h"

namespace sb::sim {
class Simulation;
}  // namespace sb::sim

namespace sb::fleet {

/// One entry of the dispatch catalog: the benchmark a job class runs, how
/// many worker threads it forks, and the per-thread instruction budget that
/// makes the job terminate.
struct JobClass {
  std::string benchmark;
  int threads = 1;
  std::uint64_t per_thread_instructions = 10'000'000;
};

/// The default 8-class catalog: CPU-bound PARSEC/x264 jobs spanning small
/// compute kernels to memory-bound multi-thread jobs. Zipf rank 0 (most
/// popular) is the lightest class, mirroring real request skew.
std::vector<JobClass> default_catalog();

/// Lifecycle record of one job (all times are fleet-simulated ns;
/// kTimeNever where the stage was never reached).
struct JobRecord {
  std::uint64_t id = 0;
  int job_class = 0;
  int node = -1;            // -1: still queued at the fleet when time ran out
  TimeNs arrival = 0;
  TimeNs admitted = kTimeNever;   // dispatch time (queue = admitted - arrival)
  TimeNs first_run = kTimeNever;  // earliest thread dispatch on a core
  TimeNs completed = kTimeNever;  // last thread exit
};

/// Exact latency tails now live in common/percentile.h (shared with the
/// per-node wake-to-run latency report); re-exported here for the fleet
/// call sites and the determinism-matrix tests.
using sb::LatencyTail;
using sb::nearest_rank;
using sb::tail_of;

struct FleetResult {
  std::string dispatch_policy;
  std::string node_policy;
  int nodes = 0;
  TimeNs simulated = 0;

  std::uint64_t jobs_arrived = 0;
  std::uint64_t jobs_dispatched = 0;
  std::uint64_t jobs_completed = 0;
  /// Placement attempts the dispatcher declined (job retried next quantum).
  std::uint64_t jobs_deferred = 0;

  /// Fleet-wide totals and the headline metric: instructions per joule
  /// across every node (the fleet analogue of IPS/W).
  std::uint64_t instructions = 0;
  double energy_j = 0;
  double je_inst_per_joule = 0;

  /// queue: arrival → dispatch; wake: dispatch → first thread on a core;
  /// sojourn: arrival → last thread exit (completed jobs only).
  LatencyTail queue;
  LatencyTail wake;
  LatencyTail sojourn;
  /// The gated tail: p99 of (queue + wake) over every dispatched job that
  /// started running — the latency a fleet operator actually promises.
  std::uint64_t p99_dispatch_to_run_ns = 0;

  /// Per-node final metrics, index order.
  std::vector<sim::SimulationResult> node_results;
  std::vector<JobRecord> jobs;

  /// Fleet-level observability (null unless trace/metrics enabled):
  /// fleet.quantum spans, fleet.dispatch instants, fleet.job.* histograms.
  std::shared_ptr<obs::RunObs> obs;
  /// Per-node metrics registries (node_obs only), run = node index + 1.
  std::vector<std::shared_ptr<obs::RunObs>> node_obs;
};

/// Serializes a FleetResult as a single deterministic JSON object
/// (fleet-level summary, latency tails, per-node rollup, job counts).
void write_fleet_json(std::ostream& os, const FleetResult& r);

class FleetSimulation {
 public:
  /// `node_platforms` is either one platform (replicated to cfg.nodes) or
  /// exactly cfg.nodes platforms (heterogeneous fleet shapes). The catalog
  /// must have >= 1 class; the arrival process draws classes modulo its
  /// size. Throws std::invalid_argument on shape mismatches.
  FleetSimulation(FleetConfig cfg,
                  std::vector<arch::Platform> node_platforms,
                  std::vector<JobClass> catalog = default_catalog());
  ~FleetSimulation();

  FleetSimulation(const FleetSimulation&) = delete;
  FleetSimulation& operator=(const FleetSimulation&) = delete;

  /// Runs the full window (cfg.duration in cfg.quantum steps) and returns
  /// the fleet metrics; callable once.
  FleetResult run();

  const FleetConfig& config() const { return cfg_; }
  const std::vector<JobClass>& catalog() const { return catalog_; }

 private:
  struct Node;
  struct PendingJob;

  void build_nodes(const std::vector<arch::Platform>& platforms);
  /// Predicted marginal instructions-per-joule of `job_class` on `node`:
  /// the free-core-count-weighted harmonic mean of the per-type
  /// predictions (the node's own balancer spreads load over the whole
  /// node, so the expected energy is the average joules-per-instruction
  /// across the cores still free, not the best single core's). Falls back
  /// to all cores when the node is fully busy; 0 when no prediction
  /// exists. The per-type table is cached per platform shape; the
  /// availability scan reads the node's live thread->core assignment,
  /// which is what makes the dispatcher sensing-driven rather than static.
  double best_eff_ipj(int node, int job_class);
  /// The per-class x per-type IPJ table of `n`'s platform shape, built on
  /// first use and cached in eff_cache_.
  const std::vector<std::vector<double>>& eff_table(const Node& n);
  NodeView view_of(int node, int job_class);
  void pull_arrivals(TimeNs until);
  void dispatch_pending(TimeNs now, std::uint64_t quantum_idx);
  void step_nodes(TimeNs dt);
  void scan_completions();
  /// Records fleet-level telemetry frames for every --obs-window boundary
  /// crossed up to `now`. Runs after the step_nodes join, so it reads only
  /// settled node state — deterministic for any step_jobs worker count.
  void sample_timeseries(TimeNs now);

  FleetConfig cfg_;
  std::vector<JobClass> catalog_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::unique_ptr<Dispatcher> dispatcher_;
  workload::ArrivalProcess arrivals_;
  /// Workers for the per-quantum node stepping, resolved once.
  int step_workers_;
  bool arrivals_done_ = false;
  workload::JobArrival next_arrival_{};
  bool have_next_arrival_ = false;
  /// Replay arrival source (cfg.arrival_replay): one trace pass of spawn
  /// events, looped by the trace span. Empty = MMPP clock.
  std::vector<workload::JobArrival> replay_base_;
  TimeNs replay_span_ = 0;
  std::size_t replay_idx_ = 0;
  TimeNs replay_offset_ = 0;
  std::uint64_t replay_next_id_ = 0;
  workload::JobArrival next_arrival_event();

  std::vector<PendingJob> pending_;   // FIFO fleet queue
  std::vector<JobRecord> jobs_;       // by arrival order; jobs_[i].id == i
  /// Predicted IPJ per job class per core type, cached by platform shape
  /// key — the table is a pure function of (shape, catalog), so permuting
  /// node order or policies cannot change any entry.
  std::map<std::string, std::vector<std::vector<double>>> eff_cache_;
  /// best_eff_ipj's per-type busy-core counts, reused across calls.
  std::vector<int> busy_counts_;
  std::uint64_t jobs_deferred_ = 0;
  std::unique_ptr<obs::Sink> obs_;
  /// Telemetry-plane cadence state (cfg.timeseries / cfg.slo).
  TimeNs ts_next_ = 0;
  TimeNs ts_last_ = 0;
  double ts_prev_insts_ = 0;
  double ts_prev_joules_ = 0;
  bool ran_ = false;
};

}  // namespace sb::fleet
