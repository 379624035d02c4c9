// Task entity: the kernel's view of a schedulable thread.
//
// As in the Linux scheduling subsystem (paper §3), processes and threads are
// both "task entities" scheduled independently; we keep the same uniformity.
// A Task carries CFS bookkeeping (weight, vruntime), affinity, workload
// progress (which phase/burst of its ThreadBehavior it is executing),
// per-epoch sensing accumulators, and lifetime statistics.
#pragma once

#include <bitset>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"
#include "perf/counters.h"
#include "perf/interval_model.h"
#include "workload/profile.h"

namespace sb::os {

/// A task's scheduling state. There is no exited state: the kernel frees a
/// Task when it exits and keeps only its TaskRecord.
enum class TaskState { Runnable, Running, Sleeping };

const char* to_string(TaskState s);

/// Linux nice-to-weight mapping (kernel/sched/core.c sched_prio_to_weight):
/// each nice step changes CPU share by ~25%. nice must be in [-20, 19].
std::uint32_t nice_to_weight(int nice);

/// Weight of nice 0; vruntime advances at wall rate for this weight.
inline constexpr std::uint32_t kNice0Weight = 1024;

/// A task's lifetime summary: every field a reader needs once the task has
/// exited. The kernel frees a Task at exit and keeps only this record; for
/// a live task Kernel::record() builds it with the same Task::record(), so
/// both report one definition of each field.
struct TaskRecord {
  std::string name;
  std::uint64_t lifetime_insts = 0;
  double lifetime_energy_j = 0.0;
  TimeNs lifetime_runtime = 0;
  std::uint64_t migrations = 0;
  TimeNs arrived_at = 0;
  TimeNs first_dispatched_at = kTimeNever;
  TimeNs exited_at = kTimeNever;  // kTimeNever while the task is alive
  TimeNs total_wait = 0;
  TimeNs max_wait = 0;
  std::uint64_t dispatches = 0;

  bool exited() const { return exited_at != kTimeNever; }
};

struct Task {
  ThreadId tid = kInvalidThread;
  std::string name;
  workload::ThreadBehavior behavior;

  TaskState state = TaskState::Runnable;
  int nice = 0;
  std::uint32_t weight = kNice0Weight;

  /// CFS virtual runtime, in (weighted) nanoseconds.
  double vruntime = 0.0;

  /// Core the task is assigned to (runqueue membership / running location).
  CoreId cpu = kInvalidCore;
  /// Affinity mask (set_cpus_allowed_ptr analogue); defaults to all cores.
  std::bitset<kMaxCores> cpus_allowed = std::bitset<kMaxCores>().set();

  // --- Workload progress ---
  std::size_t phase_idx = 0;
  std::uint64_t insts_into_phase = 0;
  std::uint64_t insts_into_burst = 0;
  std::uint64_t insts_retired = 0;

  // --- Migration / cache-warmup state ---
  std::uint64_t insts_since_migration = 0;
  std::uint64_t migrations = 0;

  /// The interval model's (profile, core type) terms, memoized by the
  /// kernel's dispatch: entry (phase_idx % phases) * num_types + type_of(c)
  /// holds precompute(that phase's profile, that type's params). The
  /// kernel sizes the table at the task's first dispatch, so a task that
  /// never runs costs nothing, and fills each entry on first use, so no
  /// task evaluates more terms than it dispatches. The key is exact: the
  /// phases are fixed at fork, the platform and model config are const.
  /// The table dies with the Task; TaskRecord does not carry it.
  std::vector<std::optional<perf::IntervalModel::ProfileTerms>> model_terms;

  // --- Per-epoch sensing accumulators (drained by the balancer) ---
  perf::HpcCounters epoch_counters;
  double epoch_energy_j = 0.0;
  TimeNs epoch_runtime = 0;
  /// Core the task last executed on during the epoch (the paper's c_j for
  /// the measured column of S/P).
  CoreId epoch_core = kInvalidCore;

  // --- PELT-style utilization (for GTS and reporting) ---
  double util_avg = 0.0;
  TimeNs util_updated_at = 0;

  // --- Lifetime statistics ---
  std::uint64_t lifetime_insts = 0;
  double lifetime_energy_j = 0.0;
  TimeNs lifetime_runtime = 0;
  TimeNs arrived_at = 0;

  // --- Scheduling latency (runnable → running) ---
  TimeNs runnable_since = kTimeNever;  // set at enqueue, cleared at dispatch
  TimeNs total_wait = 0;               // accumulated runqueue wait
  TimeNs max_wait = 0;
  std::uint64_t dispatches = 0;
  /// First time the task ever ran (wake-to-run latency = this - arrived_at);
  /// kTimeNever until the first dispatch.
  TimeNs first_dispatched_at = kTimeNever;
  /// Timestamp of the latest Sleeping→Runnable wake; cleared at the first
  /// dispatch after it (wake-to-run latency = dispatch time - this).
  TimeNs last_wake_at = kTimeNever;

  bool can_run_on(CoreId c) const {
    return c >= 0 && c < kMaxCores &&
           cpus_allowed.test(static_cast<std::size_t>(c));
  }

  const workload::WorkloadProfile& current_profile() const {
    return behavior.phases[phase_idx % behavior.phases.size()].profile;
  }
  std::uint64_t current_phase_length() const {
    return behavior.phases[phase_idx % behavior.phases.size()].instructions;
  }

  /// Folds the lifetime statistics into a TaskRecord: at exit with the exit
  /// time, or on demand for a live task with kTimeNever.
  TaskRecord record(TimeNs exited_at) const;

  /// Drains the per-epoch accumulators (counters, energy, runtime).
  void reset_epoch_accumulators() {
    epoch_counters.reset();
    epoch_energy_j = 0.0;
    epoch_runtime = 0;
  }
};

}  // namespace sb::os
