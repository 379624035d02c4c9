// The kernel scheduling simulator.
//
// Reproduces the slice of Linux 2.6.x the paper modifies and measures:
//   * per-core CFS runqueues with vruntime scheduling, nice weights,
//     timeslice = period · weight / Σweight, wakeup preemption;
//   * task lifecycle (fork / run / sleep / wake / exit) driven by each
//     task's workload::ThreadBehavior;
//   * per-thread hardware-counter accounting at context-switch granularity
//     (the paper samples HPCs in schedule(); we account at segment end,
//     which is the same boundary);
//   * CPU-affinity migration (set_cpus_allowed_ptr analogue) with cache
//     warmup costs charged by the performance model;
//   * a pluggable LoadBalancer fired on its own interval, replacing
//     rebalance_domains();
//   * a live-task index, so the per-epoch scans (balancing, sensing,
//     sampling) cost O(live threads), not O(threads ever forked). A
//     service-mode node forks thousands of short jobs while keeping a
//     handful alive;
//   * task reaping: as Linux frees an exited task_struct, the kernel frees
//     a Task when it exits and keeps only its TaskRecord, so memory grows
//     with the live threads plus a fixed-size record per exited one.
//
// Execution is discrete-event: a core runs its current task in *segments*
// bounded by the CFS slice, workload phase/burst boundaries, wakeup
// preemption, balancing epochs and simulation end. Ground-truth
// instructions, events and energy for each segment come from the
// mechanistic models (sb::perf, sb::power); the balancer can only observe
// them through counters and sensors.
#pragma once

#include <cstdint>
#include <memory>
#include <queue>
#include <vector>

#include "arch/cache_model.h"
#include "arch/dvfs.h"
#include "arch/memory_system.h"
#include "arch/platform.h"
#include "common/rng.h"
#include "common/types.h"
#include "os/cfs_runqueue.h"
#include "os/dvfs_governor.h"
#include "os/load_balancer.h"
#include "os/pelt.h"
#include "os/task.h"
#include "perf/perf_model.h"
#include "power/energy_meter.h"
#include "power/power_model.h"
#include "power/sensor.h"

namespace sb::obs {
class Sink;
}  // namespace sb::obs

namespace sb::os {

/// CFS timing at Linux's stock values: the period that the runnable tasks
/// of a core share (sysctl_sched_latency), the minimum slice
/// (sysctl_sched_min_granularity), and the vruntime lead a waking task
/// needs to preempt (sysctl_sched_wakeup_granularity). VanillaBalancer
/// fires once per period.
inline constexpr TimeNs kSchedLatency = milliseconds(6);
inline constexpr TimeNs kMinGranularity = microseconds(750);
inline constexpr TimeNs kWakeupGranularity = milliseconds(1);

struct KernelConfig {
  std::uint64_t seed = 42;
  arch::CacheWarmupModel warmup{};
  arch::SharedBus::Config bus{};
  /// Gives every core type a 4-point OPP table (OppTable::typical_for) and
  /// enables set_core_opp / DVFS governors. Off by default: the paper fixes
  /// all voltages/frequencies to isolate architectural heterogeneity (§5).
  bool enable_dvfs = false;
};

/// One thread's sensing record for a balancing epoch (drained by policies).
struct EpochSample {
  ThreadId tid = kInvalidThread;
  CoreId core = kInvalidCore;  // core the thread executed on this epoch
  perf::HpcCounters counters;  // ground-truth counters (noise is applied by
                               // the policy's sensing layer)
  double energy_j = 0.0;
  TimeNs runtime = 0;
  double util = 0.0;           // PELT utilization at drain time
  std::uint32_t weight = kNice0Weight;
  /// Frequency (MHz) of the core the thread ran on, at drain time; under
  /// DVFS this can differ from the type's nominal frequency.
  double freq_mhz = 0.0;
  /// False while the thread is still refilling its private caches after a
  /// migration — its counters are transiently depressed and not
  /// representative of steady-state behaviour on this core.
  bool warm = true;
};

/// Fault hook on the balancer-driven migration path. Real
/// set_cpus_allowed_ptr calls can fail (target unplugged mid-call, IPI
/// lost) or land late (stop-machine contention); a filter injects exactly
/// those outcomes. Consulted only for migrations requested during a
/// balance pass — kernel-internal moves (hotplug evacuation, affinity
/// kicks, wake placement) are correctness-critical and never filtered.
class MigrationFilter {
 public:
  enum class Decision {
    kAllow,   // migration proceeds normally
    kDefer,   // applied at the start of the next balance pass
    kReject,  // dropped silently (the call "failed")
  };
  virtual ~MigrationFilter() = default;
  virtual Decision on_migrate(ThreadId tid, CoreId from, CoreId to) = 0;
};

class Kernel {
 public:
  Kernel(const arch::Platform& platform, const perf::PerfModel& perf,
         const power::PowerModel& power, KernelConfig cfg = KernelConfig());

  Kernel(const Kernel&) = delete;
  Kernel& operator=(const Kernel&) = delete;

  // --- Task lifecycle -----------------------------------------------------
  /// Creates a task; initial placement is round-robin over allowed cores
  /// (vanilla fork placement is heterogeneity-blind).
  ThreadId fork(workload::ThreadBehavior behavior);
  /// Creates a task pinned-placed on a specific core (not affinity-pinned).
  ThreadId fork_on(workload::ThreadBehavior behavior, CoreId core);

  // --- Policy installation -------------------------------------------------
  void set_balancer(std::unique_ptr<LoadBalancer> balancer);
  LoadBalancer* balancer() { return balancer_.get(); }
  const LoadBalancer* balancer() const { return balancer_.get(); }

  /// Installs a DVFS governor (requires KernelConfig::enable_dvfs).
  void set_governor(std::unique_ptr<DvfsGovernor> governor);
  DvfsGovernor* governor() { return governor_.get(); }

  // --- DVFS (cpufreq analogue) ----------------------------------------------
  const arch::OppTable& opp_table(CoreId c) const;
  std::size_t core_opp_index(CoreId c) const;
  const arch::OperatingPoint& core_opp(CoreId c) const;
  /// Switches a core's operating point. A running segment is flushed and
  /// re-dispatched at the new frequency. Counts as a DVFS transition.
  void set_core_opp(CoreId c, std::size_t opp_index);
  std::uint64_t dvfs_transitions() const { return dvfs_transitions_; }

  // --- CPU hotplug ----------------------------------------------------------
  /// Takes a core offline: its tasks are migrated to the least-loaded
  /// online core their affinity allows (throws std::logic_error if any
  /// task has nowhere to go, or if this is the last online core), and the
  /// core power-gates (sleep state) until brought back online. Offline
  /// cores reject fork/migrate placements and are skipped by wake
  /// placement; balancers must check core_online().
  void set_core_online(CoreId c, bool online);
  bool core_online(CoreId c) const { return !core(c).offline; }
  int num_online_cores() const;

  // --- Simulation control --------------------------------------------------
  /// Advances simulated time to `t` (absolute). Accounting is exact at `t`.
  void run_until(TimeNs t);
  void run_for(TimeNs dt) { run_until(now_ + dt); }
  TimeNs now() const { return now_; }
  /// True once at least one task was forked and none is alive. O(1).
  bool all_exited() const { return alive_.empty() && !tasks_.empty(); }

  // --- Balancer / experiment API -------------------------------------------
  const arch::Platform& platform() const { return platform_; }
  int num_cores() const { return platform_.num_cores(); }

  /// A live task (forked and not yet exited). Throws std::out_of_range for
  /// a tid never forked and std::logic_error for one that has exited: its
  /// Task is gone, and record() serves what is left of it.
  const Task& task(ThreadId tid) const { return *live(tid); }
  /// True while the kernel holds tid's Task: forked and not yet exited.
  /// Throws std::out_of_range for a tid never forked.
  bool alive(ThreadId tid) const { return tasks_[checked(tid)] != nullptr; }
  /// Lifetime summary of any tid ever forked: the record kept at exit, or
  /// for a live task one built now by the same Task::record(). Throws
  /// std::out_of_range for a tid never forked.
  TaskRecord record(ThreadId tid) const;
  /// Tids ever forked, exited ones included (tids are dense indices).
  std::size_t num_tasks() const { return tasks_.size(); }
  /// Snapshot of the alive threads, in ascending tid order: the set V
  /// optimized each epoch (every simulated task is a user thread). Read
  /// from the live-task index: O(live threads), however many have exited.
  std::vector<ThreadId> alive_threads() const { return alive_; }

  /// PELT utilization advanced to now.
  double task_util(ThreadId tid) const;
  /// CFS load of a core: Σ weight of runnable + running tasks.
  double core_load(CoreId c) const;
  int core_nr_running(CoreId c) const;
  /// The thread currently executing on `c` (kInvalidThread if none).
  ThreadId core_running(CoreId c) const;

  /// Migrates a task to `dest` (must be allowed by its affinity mask).
  /// Running tasks are stopped (counters flushed) first. Sleeping tasks are
  /// retargeted and migrate on wake. Resets the cache-warmup window.
  /// During a balance pass an installed MigrationFilter may reject or defer
  /// the move (see set_migration_filter).
  void migrate(ThreadId tid, CoreId dest);

  /// Installs (or clears, with nullptr) the migration fault filter. Not
  /// owned; the caller keeps it alive while installed.
  void set_migration_filter(MigrationFilter* filter) {
    migration_filter_ = filter;
  }
  MigrationFilter* migration_filter() const { return migration_filter_; }

  /// Installs (or clears, with nullptr) the observability sink. Not owned;
  /// the Simulation keeps it alive while installed. Policies read it via
  /// obs() inside their balance pass; a null sink means observability off.
  void set_obs(obs::Sink* sink) { obs_ = sink; }
  obs::Sink* obs() const { return obs_; }

  /// Exact wake→first-dispatch deltas, one per Sleeping→Runnable wake, in
  /// event order. Pure accounting (never fed back into scheduling), so
  /// collecting it cannot perturb a golden run; the latency report's
  /// nearest-rank p50/p95/p99 are computed from this ground truth while the
  /// obs histogram (sched.wake_to_run_ns) stays the mergeable view.
  const std::vector<TimeNs>& wake_latencies() const { return wake_latencies_; }
  /// Balance-pass migrations dropped / postponed by the filter.
  std::uint64_t migrations_rejected() const { return migrations_rejected_; }
  std::uint64_t migrations_deferred() const { return migrations_deferred_; }
  /// Deferred migrations applied at a later balance pass.
  std::uint64_t deferred_applied() const { return deferred_applied_; }
  void set_cpus_allowed(ThreadId tid, const std::bitset<kMaxCores>& mask);
  void set_nice(ThreadId tid, int nice);

  /// Collects and clears every alive thread's epoch accumulators, one sample
  /// per alive thread in ascending tid order. O(live threads).
  std::vector<EpochSample> drain_epoch_samples();

  power::PowerSensorBank& sensors() { return sensors_; }
  const power::EnergyMeter& energy() const { return meter_; }
  arch::SharedBus& bus() { return bus_; }
  const perf::PerfModel& perf_model() const { return perf_; }
  const power::PowerModel& power_model() const { return power_; }
  const KernelConfig& config() const { return cfg_; }

  // --- Global statistics ----------------------------------------------------
  /// Σ lifetime_insts over every task ever forked, kept as a running total.
  /// O(1).
  std::uint64_t total_instructions() const { return total_instructions_; }
  std::uint64_t core_instructions(CoreId c) const {
    return core(c).instructions;
  }
  std::uint64_t total_migrations() const { return total_migrations_; }
  std::uint64_t context_switches() const { return context_switches_; }
  std::uint64_t balance_passes() const { return balance_passes_; }

 private:
  enum class EventType { SegmentEnd, Wake, Balance, Governor };

  struct Event {
    TimeNs time;
    EventType type;
    std::int64_t a;        // core (SegmentEnd) or tid (Wake)
    std::uint64_t seq;     // dispatch sequence (SegmentEnd staleness check)
    std::uint64_t order;   // global tie-breaker for determinism
    bool operator>(const Event& o) const {
      if (time != o.time) return time > o.time;
      return order > o.order;
    }
  };

  struct CoreState {
    CfsRunqueue rq;
    ThreadId running = kInvalidThread;
    TimeNs segment_start = 0;
    std::uint64_t dispatch_seq = 0;
    TimeNs sleeping_since = 0;  // core quiescent since (valid when no task
                                // has ever run or runqueue drained)
    bool asleep = true;
    // Frozen per-segment model outputs:
    perf::PerfBreakdown seg_breakdown;
    double seg_activity = 1.0;
    TimeNs slice_end = 0;
    std::uint64_t instructions = 0;  // lifetime instructions retired here
    std::size_t opp_idx = 0;         // current DVFS operating point
    bool offline = false;            // hot-unplugged
  };

  // The bounds-checked accessors run several times per context switch, so
  // they are inline; the throws stay out of line.
  [[noreturn]] static void throw_out_of_range(const char* what);
  [[noreturn]] static void throw_exited(ThreadId tid);

  std::size_t checked(ThreadId tid) const {
    if (tid < 0 || static_cast<std::size_t>(tid) >= tasks_.size()) {
      throw_out_of_range("Kernel: bad ThreadId");
    }
    return static_cast<std::size_t>(tid);
  }
  /// tid's Task; throws like task() for an exited or unknown tid.
  Task* live(ThreadId tid) const {
    Task* t = tasks_[checked(tid)].get();
    if (t == nullptr) throw_exited(tid);
    return t;
  }
  Task& task_mut(ThreadId tid) { return *live(tid); }
  CoreState& core(CoreId c) {
    if (c < 0 || static_cast<std::size_t>(c) >= cores_.size()) {
      throw_out_of_range("Kernel: bad CoreId");
    }
    return cores_[static_cast<std::size_t>(c)];
  }
  const CoreState& core(CoreId c) const {
    return const_cast<Kernel*>(this)->core(c);
  }

  void push_event(TimeNs time, EventType type, std::int64_t a,
                  std::uint64_t seq);
  void handle_segment_end(CoreId c, std::uint64_t seq);
  void handle_wake(ThreadId tid);
  void handle_balance();

  /// Starts the next task on an idle core (no-op if the runqueue is empty).
  void dispatch(CoreId c);
  /// Instructions until the nearest workload boundary (phase, burst, exit).
  std::uint64_t current_segment_bound(const Task& t) const;
  /// Accounts the running segment up to now_ and returns the task id;
  /// leaves the core with no running task. kInvalidThread if none ran.
  ThreadId stop_current(CoreId c);
  /// Accounts ground truth for the segment that ran on `c` until now_.
  void account_segment(CoreId c);
  /// Charges sleep power for a quiescent core up to now_.
  void account_core_sleep(CoreId c);
  /// Marks t Runnable on its core's runqueue; its wait starts now unless
  /// it is already waiting. Every enqueue goes through here.
  void requeue(Task& t);
  /// Places a runnable task on its core's runqueue (+wakeup preemption).
  void enqueue_task(Task& t, bool wakeup);
  void advance_util(Task& t, bool active);
  TimeNs draw_sleep(const workload::ThreadBehavior& b);
  CoreId pick_fork_core(const Task& t);
  /// Builds and enqueues a task on core `c` (kInvalidCore: the round-robin
  /// fork core); fork and fork_on differ only in that choice.
  ThreadId spawn(workload::ThreadBehavior behavior, CoreId c);
  /// Settles a task whose segment just stopped: exits it (keeping its
  /// record and freeing the Task), puts it to sleep, or requeues it.
  void after_task_stops(ThreadId tid);

  const arch::Platform& platform_;
  const perf::PerfModel& perf_;
  const power::PowerModel& power_;
  KernelConfig cfg_;

  /// One slot per tid ever forked: the Task while it lives, null once it
  /// has exited.
  std::vector<std::unique_ptr<Task>> tasks_;
  /// Exit records, one per tid; a slot is filled when its task exits.
  std::vector<TaskRecord> records_;
  // What an exited task costs: its record plus its null tasks_ slot. A
  // name too long for std::string's inline buffer adds one heap block.
  static_assert(sizeof(TaskRecord) + sizeof(std::unique_ptr<Task>) <= 128,
                "exited-task budget is 128 B");
  /// Live-task index: alive tids in ascending order. Appended at fork (tids
  /// grow monotonically) and erased where a task exits (after_task_stops).
  std::vector<ThreadId> alive_;
  std::uint64_t total_instructions_ = 0;
  std::vector<CoreState> cores_;
  power::EnergyMeter meter_;
  power::PowerSensorBank sensors_;
  arch::SharedBus bus_;
  PeltTracker pelt_;
  Rng rng_;

  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> events_;
  std::uint64_t event_order_ = 0;
  TimeNs now_ = 0;

  std::unique_ptr<LoadBalancer> balancer_;
  bool balance_scheduled_ = false;
  bool in_balance_pass_ = false;
  std::unique_ptr<DvfsGovernor> governor_;
  bool governor_scheduled_ = false;
  std::vector<arch::OppTable> opp_tables_;  // per core type
  std::uint64_t dvfs_transitions_ = 0;

  MigrationFilter* migration_filter_ = nullptr;
  obs::Sink* obs_ = nullptr;
  std::vector<TimeNs> wake_latencies_;
  struct DeferredMigration {
    ThreadId tid;
    CoreId dest;
  };
  std::vector<DeferredMigration> deferred_migrations_;
  /// True while the kernel itself migrates (hotplug evacuation, deferred
  /// replay): those moves must never be filtered again.
  bool bypass_migration_filter_ = false;
  std::uint64_t migrations_rejected_ = 0;
  std::uint64_t migrations_deferred_ = 0;
  std::uint64_t deferred_applied_ = 0;

  int fork_rr_ = 0;
  std::uint64_t total_migrations_ = 0;
  std::uint64_t context_switches_ = 0;
  std::uint64_t balance_passes_ = 0;
};

}  // namespace sb::os
