#include "os/kernel.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/log.h"
#include "obs/sink.h"

namespace sb::os {

Kernel::Kernel(const arch::Platform& platform, const perf::PerfModel& perf,
               const power::PowerModel& power, KernelConfig cfg)
    : platform_(platform),
      perf_(perf),
      power_(power),
      cfg_(cfg),
      cores_(static_cast<std::size_t>(platform.num_cores())),
      meter_(platform.num_cores()),
      sensors_(meter_, power::PowerSensorBank::Config(),
               Rng(cfg.seed ^ 0x5e5e5e5eULL)),
      bus_(platform.num_cores(), cfg.bus),
      rng_(cfg.seed) {
  platform_.validate();
  if (platform_.num_cores() > kMaxCores) {
    throw std::invalid_argument("Kernel: platform exceeds kMaxCores");
  }
  for (CoreTypeId t = 0; t < platform_.num_types(); ++t) {
    const auto& params = platform_.params_of_type(t);
    opp_tables_.push_back(cfg_.enable_dvfs ? arch::OppTable::typical_for(params)
                                           : arch::OppTable::nominal_only(params));
  }
  for (CoreId c = 0; c < platform_.num_cores(); ++c) {
    CoreState& cs = cores_[static_cast<std::size_t>(c)];
    cs.asleep = true;
    cs.sleeping_since = 0;
    cs.opp_idx = opp_table(c).size() - 1;  // boot at nominal / top
  }
}

const arch::OppTable& Kernel::opp_table(CoreId c) const {
  return opp_tables_[static_cast<std::size_t>(platform_.type_of(c))];
}

std::size_t Kernel::core_opp_index(CoreId c) const { return core(c).opp_idx; }

const arch::OperatingPoint& Kernel::core_opp(CoreId c) const {
  return opp_table(c).at(core(c).opp_idx);
}

void Kernel::set_core_opp(CoreId c, std::size_t opp_index) {
  CoreState& cs = core(c);
  if (opp_index >= opp_table(c).size()) {
    throw std::out_of_range("set_core_opp: bad operating point");
  }
  if (opp_index == cs.opp_idx) return;
  // Flush the running segment at the old frequency, then resume at the new
  // one (a real cpufreq transition also quiesces the core briefly).
  const ThreadId running = stop_current(c);
  cs.opp_idx = opp_index;
  ++dvfs_transitions_;
  if (running != kInvalidThread) requeue(task_mut(running));
  if (!in_balance_pass_ && cs.running == kInvalidThread) dispatch(c);
}

void Kernel::set_core_online(CoreId c, bool online) {
  CoreState& cs = core(c);
  if (cs.offline == !online) return;
  if (online) {
    cs.offline = false;
    return;
  }
  // Validate before mutating: every task currently placed on this core must
  // have somewhere online to go, and this must not be the last online core.
  if (num_online_cores() <= 1) {
    throw std::logic_error("set_core_online: cannot offline the last core");
  }
  auto fallback_for = [&](const Task& t) -> CoreId {
    CoreId best = kInvalidCore;
    double best_load = 0;
    for (CoreId o = 0; o < num_cores(); ++o) {
      if (o == c || core(o).offline || !t.can_run_on(o)) continue;
      const double load = core_load(o);
      if (best == kInvalidCore || load < best_load) {
        best = o;
        best_load = load;
      }
    }
    return best;
  };
  for (const ThreadId tid : alive_) {
    const Task& t = task(tid);
    if (t.cpu == c && fallback_for(t) == kInvalidCore) {
      throw std::logic_error("set_core_online: task '" + t.name +
                             "' has no online core in its affinity mask");
    }
  }

  cs.offline = true;
  // Evacuate: running task first, then the queue, then retarget sleepers.
  // Evacuation moves are correctness-critical — never fault-filtered, even
  // when a policy unplugs cores mid-balance-pass.
  const bool prev_bypass = bypass_migration_filter_;
  bypass_migration_filter_ = true;
  const ThreadId running = stop_current(c);
  if (running != kInvalidThread) after_task_stops(running);
  while (!cs.rq.empty()) {
    const ThreadId tid = cs.rq.leftmost();
    migrate(tid, fallback_for(task(tid)));
  }
  for (const ThreadId tid : alive_) {
    Task& t = task_mut(tid);
    if (t.state == TaskState::Sleeping && t.cpu == c) t.cpu = fallback_for(t);
  }
  if (!cs.asleep) {
    cs.asleep = true;
    cs.sleeping_since = now_;
  }
  bypass_migration_filter_ = prev_bypass;
}

int Kernel::num_online_cores() const {
  int n = 0;
  for (CoreId c = 0; c < num_cores(); ++c) {
    if (!core(c).offline) ++n;
  }
  return n;
}

void Kernel::set_governor(std::unique_ptr<DvfsGovernor> governor) {
  if (governor && !cfg_.enable_dvfs) {
    throw std::logic_error("set_governor: KernelConfig::enable_dvfs is off");
  }
  governor_ = std::move(governor);
  governor_scheduled_ = false;
}

void Kernel::throw_out_of_range(const char* what) {
  throw std::out_of_range(what);
}

void Kernel::throw_exited(ThreadId tid) {
  throw std::logic_error("Kernel: task " + std::to_string(tid) +
                         " has exited");
}

TaskRecord Kernel::record(ThreadId tid) const {
  const std::size_t i = checked(tid);
  return tasks_[i] ? tasks_[i]->record(kTimeNever) : records_[i];
}

// --------------------------------------------------------------------------
// Task lifecycle
// --------------------------------------------------------------------------

ThreadId Kernel::fork(workload::ThreadBehavior behavior) {
  return spawn(std::move(behavior), kInvalidCore);
}

ThreadId Kernel::fork_on(workload::ThreadBehavior behavior, CoreId c) {
  if (c < 0 || c >= num_cores()) throw std::out_of_range("fork_on: bad core");
  if (core(c).offline) throw std::logic_error("fork_on: core is offline");
  return spawn(std::move(behavior), c);
}

ThreadId Kernel::spawn(workload::ThreadBehavior behavior, CoreId c) {
  behavior.validate();
  auto t = std::make_unique<Task>();
  t->tid = static_cast<ThreadId>(tasks_.size());
  t->name = behavior.name.empty()
                ? ("task" + std::to_string(t->tid))
                : behavior.name;
  t->nice = behavior.nice;
  t->weight = nice_to_weight(behavior.nice);
  t->behavior = std::move(behavior);
  t->arrived_at = now_;
  t->util_updated_at = now_;
  t->state = TaskState::Runnable;
  Task& ref = *t;
  tasks_.push_back(std::move(t));
  records_.emplace_back();
  alive_.push_back(ref.tid);

  ref.cpu = c != kInvalidCore ? c : pick_fork_core(ref);
  ref.vruntime = core(ref.cpu).rq.min_vruntime();
  enqueue_task(ref, /*wakeup=*/false);
  return ref.tid;
}

CoreId Kernel::pick_fork_core(const Task& t) {
  const int n = num_cores();
  for (int i = 0; i < n; ++i) {
    const CoreId c = static_cast<CoreId>((fork_rr_ + i) % n);
    if (t.can_run_on(c) && !core(c).offline) {
      fork_rr_ = (fork_rr_ + i + 1) % n;
      return c;
    }
  }
  throw std::logic_error("fork: no online core in the task's affinity mask");
}

void Kernel::set_balancer(std::unique_ptr<LoadBalancer> balancer) {
  balancer_ = std::move(balancer);
  balance_scheduled_ = false;
}

void Kernel::set_nice(ThreadId tid, int nice) {
  Task& t = task_mut(tid);
  const std::uint32_t w = nice_to_weight(nice);
  if (t.state == TaskState::Runnable) {
    // Re-key the runqueue entry (weight is part of the entry).
    core(t.cpu).rq.remove(tid, t.vruntime);
    t.nice = nice;
    t.weight = w;
    core(t.cpu).rq.enqueue(tid, t.vruntime, w);
  } else {
    t.nice = nice;
    t.weight = w;
  }
}

// --------------------------------------------------------------------------
// Event machinery
// --------------------------------------------------------------------------

void Kernel::push_event(TimeNs time, EventType type, std::int64_t a,
                        std::uint64_t seq) {
  events_.push(Event{time, type, a, seq, event_order_++});
}

void Kernel::run_until(TimeNs t) {
  if (t < now_) throw std::invalid_argument("run_until: time went backwards");
  if (balancer_ && !balance_scheduled_) {
    push_event(now_ + balancer_->interval(), EventType::Balance, 0, 0);
    balance_scheduled_ = true;
  }
  if (governor_ && !governor_scheduled_) {
    push_event(now_ + governor_->interval(), EventType::Governor, 0, 0);
    governor_scheduled_ = true;
  }
  while (!events_.empty() && events_.top().time <= t) {
    const Event e = events_.top();
    events_.pop();
    now_ = std::max(now_, e.time);
    switch (e.type) {
      case EventType::SegmentEnd:
        handle_segment_end(static_cast<CoreId>(e.a), e.seq);
        break;
      case EventType::Wake:
        handle_wake(static_cast<ThreadId>(e.a));
        break;
      case EventType::Balance:
        handle_balance();
        break;
      case EventType::Governor:
        if (governor_) {
          governor_->on_tick(*this, now_);
          push_event(now_ + governor_->interval(), EventType::Governor, 0, 0);
        }
        break;
    }
  }
  now_ = t;
  // Make all accounting exact at t: flush running segments and sleep time.
  for (CoreId c = 0; c < num_cores(); ++c) {
    CoreState& cs = core(c);
    if (cs.running != kInvalidThread) {
      requeue(task_mut(stop_current(c)));
      dispatch(c);
    } else if (cs.asleep) {
      account_core_sleep(c);
    }
  }
}

// --------------------------------------------------------------------------
// Scheduling core
// --------------------------------------------------------------------------

void Kernel::dispatch(CoreId c) {
  CoreState& cs = core(c);
  if (cs.running != kInvalidThread) {
    throw std::logic_error("dispatch: core already running a task");
  }
  if (cs.offline) {
    // Hot-unplugged: never start work here (evacuation drains the queue).
    if (!cs.asleep) {
      cs.asleep = true;
      cs.sleeping_since = now_;
    }
    return;
  }
  if (cs.rq.empty()) {
    if (!cs.asleep) {
      cs.asleep = true;
      cs.sleeping_since = now_;
    }
    return;
  }
  if (cs.asleep) {
    account_core_sleep(c);
    cs.asleep = false;
  }

  const ThreadId tid = cs.rq.pop_leftmost();
  Task& t = task_mut(tid);
  if (t.runnable_since != kTimeNever) {
    const TimeNs waited = now_ - t.runnable_since;
    t.total_wait += waited;
    t.max_wait = std::max(t.max_wait, waited);
    t.runnable_since = kTimeNever;
  }
  ++t.dispatches;
  if (t.first_dispatched_at == kTimeNever) t.first_dispatched_at = now_;
  if (t.last_wake_at != kTimeNever) {
    const TimeNs wake_to_run = now_ - t.last_wake_at;
    t.last_wake_at = kTimeNever;
    wake_latencies_.push_back(wake_to_run);
    if (obs_ != nullptr) {
      obs_->metrics()
          .histogram("sched.wake_to_run_ns")
          .record(static_cast<std::uint64_t>(wake_to_run));
      if (auto* tracer = obs_->tracer()) {
        tracer->instant("sched.run", static_cast<std::uint64_t>(now_),
                        obs_->epoch(),
                        {{"tid", static_cast<double>(tid)},
                         {"wait_ns", static_cast<double>(wake_to_run)}});
      }
    }
  }
  t.state = TaskState::Running;
  t.cpu = c;
  cs.running = tid;

  const arch::CoreParams& params = platform_.params_of(c);
  const auto nr = cs.rq.size() + 1;
  const TimeNs period = std::max<TimeNs>(
      kSchedLatency, kMinGranularity * static_cast<TimeNs>(nr));
  const std::uint64_t total_w = cs.rq.total_weight() + t.weight;
  TimeNs slice = static_cast<TimeNs>(
      static_cast<double>(period) * static_cast<double>(t.weight) /
      static_cast<double>(total_w));
  slice = std::max(slice, kMinGranularity);

  // Freeze the per-segment model evaluation (bus latency, cache warmth and
  // the DVFS operating point change slowly relative to a sub-millisecond
  // segment). Only those three inputs vary between dispatches; the terms
  // that depend on the phase's profile and the core type come from the
  // task's memo (Task::model_terms).
  const workload::WorkloadProfile& profile = t.current_profile();
  const arch::OperatingPoint& opp = core_opp(c);
  const perf::IntervalModel& model = perf_.interval_model();
  const auto types = static_cast<std::size_t>(platform_.num_types());
  const std::size_t phases = t.behavior.phases.size();
  if (t.model_terms.empty()) t.model_terms.resize(phases * types);
  auto& terms = t.model_terms[(t.phase_idx % phases) * types +
                              static_cast<std::size_t>(platform_.type_of(c))];
  if (!terms) terms = model.precompute(profile, params);
  cs.seg_breakdown = model.evaluate(
      *terms, profile, params, bus_.effective_latency_ns(),
      cfg_.warmup.miss_factor(t.insts_since_migration), opp.freq_mhz);
  cs.seg_activity = profile.activity;

  // Bound the segment by the nearest workload boundary.
  const double ips = cs.seg_breakdown.ipc * opp.freq_mhz / 1000.0;
  std::uint64_t bound = current_segment_bound(t);
  TimeNs seg = slice;
  const double insts_in_slice = static_cast<double>(slice) * ips;
  if (insts_in_slice > static_cast<double>(bound)) {
    seg = static_cast<TimeNs>(
        std::ceil(static_cast<double>(bound) / ips));
  }
  seg = std::max<TimeNs>(seg, 1);

  cs.segment_start = now_;
  cs.slice_end = now_ + slice;
  ++cs.dispatch_seq;
  push_event(now_ + seg, EventType::SegmentEnd, c, cs.dispatch_seq);
}

std::uint64_t Kernel::current_segment_bound(const Task& t) const {
  const std::uint64_t phase_rem =
      t.current_phase_length() > t.insts_into_phase
          ? t.current_phase_length() - t.insts_into_phase
          : 1;
  std::uint64_t bound = phase_rem;
  if (t.behavior.interactive()) {
    const std::uint64_t burst_rem =
        t.behavior.burst_instructions > t.insts_into_burst
            ? t.behavior.burst_instructions - t.insts_into_burst
            : 1;
    bound = std::min(bound, burst_rem);
  }
  if (t.behavior.total_instructions > 0) {
    const std::uint64_t total_rem =
        t.behavior.total_instructions > t.insts_retired
            ? t.behavior.total_instructions - t.insts_retired
            : 1;
    bound = std::min(bound, total_rem);
  }
  return bound;
}

void Kernel::account_segment(CoreId c) {
  CoreState& cs = core(c);
  const ThreadId tid = cs.running;
  if (tid == kInvalidThread) return;
  Task& t = task_mut(tid);
  const TimeNs dur = now_ - cs.segment_start;
  if (dur <= 0) return;

  const arch::OperatingPoint& opp = opp_table(c).at(cs.opp_idx);
  const double cycles = static_cast<double>(dur) * opp.freq_mhz / 1000.0;
  double insts_d = cycles * cs.seg_breakdown.ipc;
  if (t.behavior.total_instructions > 0) {
    const double total_rem = static_cast<double>(
        t.behavior.total_instructions - std::min(t.behavior.total_instructions,
                                                 t.insts_retired));
    insts_d = std::min(insts_d, total_rem);
  }
  const std::uint64_t insts = perf::round_count(insts_d);

  // Ground-truth counters for the sensing subsystem.
  const workload::WorkloadProfile& profile = t.current_profile();
  perf::PerfModel::accumulate_counters(t.epoch_counters, cs.seg_breakdown,
                                       profile, insts_d, cycles);

  // Energy: busy power at this segment's IPC, activity and DVFS point.
  const double watts = power_.busy_power_at(
      platform_.type_of(c), cs.seg_breakdown.ipc, cs.seg_activity, opp);
  const double joules = watts * to_seconds(dur);
  meter_.add_busy(c, watts, dur);
  t.epoch_energy_j += joules;
  t.lifetime_energy_j += joules;
  t.epoch_runtime += dur;
  t.lifetime_runtime += dur;
  t.epoch_core = c;

  // Shared-bus traffic feedback.
  bus_.record_traffic(c, insts_d * cs.seg_breakdown.mem_misses_per_inst, dur);

  // CFS bookkeeping.
  t.vruntime += static_cast<double>(dur) * kNice0Weight /
                static_cast<double>(t.weight);
  advance_util(t, /*active=*/true);

  // Workload progress.
  cs.instructions += insts;
  total_instructions_ += insts;
  t.insts_retired += insts;
  t.lifetime_insts += insts;
  t.insts_since_migration += insts;
  t.insts_into_burst += insts;
  t.insts_into_phase += insts;
  while (t.insts_into_phase >= t.current_phase_length()) {
    t.insts_into_phase -= t.current_phase_length();
    t.phase_idx = (t.phase_idx + 1) % t.behavior.phases.size();
  }

  cs.segment_start = now_;
}

ThreadId Kernel::stop_current(CoreId c) {
  CoreState& cs = core(c);
  const ThreadId tid = cs.running;
  if (tid == kInvalidThread) return kInvalidThread;
  account_segment(c);
  cs.running = kInvalidThread;
  ++cs.dispatch_seq;  // invalidate the pending SegmentEnd event
  ++context_switches_;
  return tid;
}

void Kernel::after_task_stops(ThreadId tid) {
  Task& t = task_mut(tid);
  if (t.behavior.total_instructions > 0 &&
      t.insts_retired >= t.behavior.total_instructions) {
    // Reap: keep the record, free the Task with its behavior and counters.
    alive_.erase(std::lower_bound(alive_.begin(), alive_.end(), tid));
    const auto i = static_cast<std::size_t>(tid);
    records_[i] = t.record(now_);
    tasks_[i].reset();
    return;
  }
  if (t.behavior.interactive() &&
      t.insts_into_burst >= t.behavior.burst_instructions) {
    t.state = TaskState::Sleeping;
    t.insts_into_burst = 0;
    push_event(now_ + draw_sleep(t.behavior), EventType::Wake, tid, 0);
    advance_util(t, /*active=*/false);
    return;
  }
  requeue(t);
}

void Kernel::handle_segment_end(CoreId c, std::uint64_t seq) {
  CoreState& cs = core(c);
  if (seq != cs.dispatch_seq || cs.running == kInvalidThread) return;  // stale
  after_task_stops(stop_current(c));
  dispatch(c);
}

void Kernel::handle_wake(ThreadId tid) {
  if (!alive(tid)) return;  // stale: the task has exited
  Task& t = task_mut(tid);
  if (t.state != TaskState::Sleeping) return;  // stale: migrated and woken
  advance_util(t, /*active=*/false);
  t.state = TaskState::Runnable;
  t.last_wake_at = now_;
  if (obs_ != nullptr) {
    if (auto* tracer = obs_->tracer()) {
      tracer->instant("sched.wake", static_cast<std::uint64_t>(now_),
                      obs_->epoch(), {{"tid", static_cast<double>(tid)}});
    }
  }

  CoreId target = t.cpu;
  if (!t.can_run_on(target) || core(target).offline) {
    // Affine wakeup fallback: least-loaded allowed online core.
    double best = -1;
    for (CoreId c = 0; c < num_cores(); ++c) {
      if (!t.can_run_on(c) || core(c).offline) continue;
      const double load = core_load(c);
      if (best < 0 || load < best) {
        best = load;
        target = c;
      }
    }
    if (best < 0) throw std::logic_error("wake: no online core allowed");
  }
  // select_idle_sibling analogue: a wake whose resident core is busy moves
  // to a fully idle allowed core instead of queueing, keeping wake-to-run
  // latency flat; balancing policies re-place the thread next epoch.
  const CoreState& resident = core(target);
  if (resident.running != kInvalidThread || !resident.rq.empty()) {
    // Busy resident core: prefer an idle core of the same type (the
    // same-LLC affine choice), else the lowest-id idle core of any type.
    CoreId idle_any = kInvalidCore;
    for (CoreId c = 0; c < num_cores(); ++c) {
      if (c == target || !t.can_run_on(c) || core(c).offline) continue;
      const CoreState& cs = core(c);
      if (cs.running != kInvalidThread || !cs.rq.empty()) continue;
      if (platform_.type_of(c) == platform_.type_of(target)) {
        idle_any = c;
        break;
      }
      if (idle_any == kInvalidCore) idle_any = c;
    }
    if (idle_any != kInvalidCore) target = idle_any;
  }
  t.cpu = target;
  // Sleeper fairness: don't let a long sleep turn into unbounded credit.
  t.vruntime = std::max(
      t.vruntime,
      core(target).rq.min_vruntime() - static_cast<double>(kSchedLatency));
  enqueue_task(t, /*wakeup=*/true);
}

void Kernel::requeue(Task& t) {
  t.state = TaskState::Runnable;
  if (t.runnable_since == kTimeNever) t.runnable_since = now_;
  core(t.cpu).rq.enqueue(t.tid, t.vruntime, t.weight);
}

void Kernel::enqueue_task(Task& t, bool wakeup) {
  CoreState& cs = core(t.cpu);
  requeue(t);
  if (in_balance_pass_) return;  // dispatch happens after the pass

  if (cs.running == kInvalidThread) {
    dispatch(t.cpu);
    return;
  }
  if (wakeup) {
    const Task& cur = task(cs.running);
    // Preempt if the woken task is entitled to run by a clear margin.
    if (cur.vruntime >
        t.vruntime + static_cast<double>(kWakeupGranularity)) {
      requeue(task_mut(stop_current(t.cpu)));
      dispatch(t.cpu);
    }
  }
}

void Kernel::handle_balance() {
  if (!balancer_) return;
  in_balance_pass_ = true;
  // Flush all running segments so counters/sensors are exact at the epoch
  // boundary (the paper samples counters in schedule(); the epoch boundary
  // coincides with a timer-driven reschedule).
  for (CoreId c = 0; c < num_cores(); ++c) {
    const ThreadId tid = stop_current(c);
    if (tid != kInvalidThread) after_task_stops(tid);
  }
  // Replay migrations a fault filter deferred at the previous pass: the
  // "late" set_cpus_allowed_ptr finally lands, if it is still legal (the
  // task may have exited, been re-routed, or the core unplugged since).
  if (!deferred_migrations_.empty()) {
    const auto pending = std::move(deferred_migrations_);
    deferred_migrations_.clear();
    bypass_migration_filter_ = true;
    for (const auto& d : pending) {
      if (!alive(d.tid)) continue;
      const Task& t = task(d.tid);
      if (!t.can_run_on(d.dest) || core(d.dest).offline || t.cpu == d.dest) {
        continue;
      }
      migrate(d.tid, d.dest);
      ++deferred_applied_;
    }
    bypass_migration_filter_ = false;
  }
  balancer_->on_balance(*this, now_);
  ++balance_passes_;
  in_balance_pass_ = false;
  for (CoreId c = 0; c < num_cores(); ++c) {
    if (core(c).running == kInvalidThread) dispatch(c);
  }
  push_event(now_ + balancer_->interval(), EventType::Balance, 0, 0);
}

// --------------------------------------------------------------------------
// Migration and affinity
// --------------------------------------------------------------------------

void Kernel::migrate(ThreadId tid, CoreId dest) {
  if (dest < 0 || dest >= num_cores()) throw std::out_of_range("migrate: core");
  if (core(dest).offline) {
    throw std::invalid_argument("migrate: destination core is offline");
  }
  Task& t = task_mut(tid);  // throws std::logic_error once the task exited
  if (!t.can_run_on(dest)) {
    throw std::invalid_argument("migrate: destination not in affinity mask");
  }
  if (t.cpu == dest) return;

  // Fault injection on the set_cpus_allowed_ptr analogue: only
  // balancer-requested moves are filterable (kernel-internal moves bypass).
  if (migration_filter_ && in_balance_pass_ && !bypass_migration_filter_) {
    switch (migration_filter_->on_migrate(tid, t.cpu, dest)) {
      case MigrationFilter::Decision::kReject:
        ++migrations_rejected_;
        return;
      case MigrationFilter::Decision::kDefer:
        ++migrations_deferred_;
        deferred_migrations_.push_back({tid, dest});
        return;
      case MigrationFilter::Decision::kAllow:
        break;
    }
  }

  const CoreId src = t.cpu;
  switch (t.state) {
    case TaskState::Running: {
      CoreState& scs = core(src);
      if (scs.running != tid) throw std::logic_error("migrate: cpu mismatch");
      stop_current(src);
      t.state = TaskState::Runnable;
      break;
    }
    case TaskState::Runnable:
      if (!core(src).rq.remove(tid, t.vruntime)) {
        throw std::logic_error("migrate: runnable task not on runqueue");
      }
      break;
    case TaskState::Sleeping:
      // Retarget only; it enqueues at `dest` on wake.
      break;
  }

  // Re-base vruntime into the destination queue's frame — a sleeper's too:
  // queues advance min_vruntime independently, so keeping the source-frame
  // value can leave the sleeper so far "ahead" of the destination queue
  // that its wakes lose preemption for whole scheduling periods (the
  // wake-to-run p99 gate in bench/fig_latency.cc catches exactly this).
  const double rel = std::max(0.0, t.vruntime - core(src).rq.min_vruntime());
  t.vruntime = core(dest).rq.min_vruntime() + rel;
  t.cpu = dest;
  ++t.migrations;
  ++total_migrations_;
  if (t.state == TaskState::Sleeping) return;
  t.insts_since_migration = 0;  // cold caches on the new core
  enqueue_task(t, /*wakeup=*/false);
  if (!in_balance_pass_ && core(src).running == kInvalidThread) dispatch(src);
}

void Kernel::set_cpus_allowed(ThreadId tid,
                              const std::bitset<kMaxCores>& mask) {
  Task& t = task_mut(tid);
  if (mask.none()) throw std::invalid_argument("set_cpus_allowed: empty mask");
  t.cpus_allowed = mask;
  if (!t.can_run_on(t.cpu)) {
    // Kick it to the first allowed core.
    for (CoreId c = 0; c < num_cores(); ++c) {
      if (t.can_run_on(c)) {
        if (t.state == TaskState::Sleeping) {
          t.cpu = c;
        } else {
          migrate(tid, c);
        }
        return;
      }
    }
    throw std::invalid_argument("set_cpus_allowed: no allowed core exists");
  }
}

// --------------------------------------------------------------------------
// Sensing / accounting helpers
// --------------------------------------------------------------------------

void Kernel::account_core_sleep(CoreId c) {
  CoreState& cs = core(c);
  if (!cs.asleep) return;
  const TimeNs dur = now_ - cs.sleeping_since;
  if (dur <= 0) return;
  meter_.add_sleep(
      c, power_.sleep_power_at(platform_.type_of(c), core_opp(c)), dur);
  bus_.record_traffic(c, 0.0, dur);
  cs.sleeping_since = now_;
}

void Kernel::advance_util(Task& t, bool active) {
  t.util_avg = pelt_.advance(t.util_avg, now_ - t.util_updated_at, active);
  t.util_updated_at = now_;
}

TimeNs Kernel::draw_sleep(const workload::ThreadBehavior& b) {
  const double u = rng_.uniform(-1.0, 1.0);
  const double dur =
      static_cast<double>(b.sleep_mean_ns) * (1.0 + b.sleep_jitter * u);
  return std::max<TimeNs>(microseconds(1), static_cast<TimeNs>(dur));
}

double Kernel::task_util(ThreadId tid) const {
  const Task& t = task(tid);
  const bool active =
      t.state == TaskState::Running || t.state == TaskState::Runnable;
  return pelt_.advance(t.util_avg, now_ - t.util_updated_at, active);
}

double Kernel::core_load(CoreId c) const {
  const CoreState& cs = core(c);
  double load = static_cast<double>(cs.rq.total_weight());
  if (cs.running != kInvalidThread) {
    load += static_cast<double>(task(cs.running).weight);
  }
  return load;
}

int Kernel::core_nr_running(CoreId c) const {
  const CoreState& cs = core(c);
  return static_cast<int>(cs.rq.size()) +
         (cs.running != kInvalidThread ? 1 : 0);
}

ThreadId Kernel::core_running(CoreId c) const { return core(c).running; }

std::vector<EpochSample> Kernel::drain_epoch_samples() {
  std::vector<EpochSample> out;
  out.reserve(alive_.size());
  for (const ThreadId tid : alive_) {
    Task& t = task_mut(tid);
    EpochSample s;
    s.tid = t.tid;
    s.core = t.epoch_core != kInvalidCore ? t.epoch_core : t.cpu;
    s.counters = t.epoch_counters;
    s.energy_j = t.epoch_energy_j;
    s.runtime = t.epoch_runtime;
    s.util = task_util(t.tid);
    s.weight = t.weight;
    s.warm = t.insts_since_migration >= cfg_.warmup.window_insts();
    s.freq_mhz = s.core >= 0 ? core_opp(s.core).freq_mhz
                             : platform_.params_of_type(0).freq_mhz;
    out.push_back(s);
    t.reset_epoch_accumulators();
  }
  return out;
}

}  // namespace sb::os
