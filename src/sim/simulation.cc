#include "sim/simulation.h"

#include <algorithm>

#include <stdexcept>

#include "core/smart_balance.h"

namespace sb::sim {
namespace {

/// Sampling period for thermal stepping and trace rows.
constexpr TimeNs kSampleInterval = milliseconds(5);

}  // namespace

Simulation::Simulation(const arch::Platform& platform, SimulationConfig cfg)
    : platform_(platform), cfg_(cfg), spawn_rng_(cfg.seed) {
  platform_.validate();
  auto kcfg = cfg_.kernel;
  kcfg.seed = cfg_.seed ^ 0x6b65726eULL;  // "kern"
  perf_ = std::make_unique<perf::PerfModel>(platform_);
  power_ = std::make_unique<power::PowerModel>(platform_, *perf_);
  kernel_ = std::make_unique<os::Kernel>(platform_, *perf_, *power_, kcfg);
  if (cfg_.obs.enabled()) {
    obs_ = std::make_unique<obs::Sink>(cfg_.obs);
    kernel_->set_obs(obs_.get());
  }
}

void Simulation::add_benchmark(const std::string& name, int threads) {
  (void)admit_benchmark(name, threads, 0);
}

std::vector<ThreadId> Simulation::admit_benchmark(
    const std::string& name, int threads,
    std::uint64_t per_thread_instructions) {
  std::vector<ThreadId> tids;
  tids.reserve(static_cast<std::size_t>(threads));
  for (auto& tb :
       workload::BenchmarkLibrary::get(name).spawn(threads, spawn_rng_)) {
    if (per_thread_instructions > 0) {
      tb.total_instructions = per_thread_instructions;
    }
    tids.push_back(kernel_->fork(std::move(tb)));
  }
  return tids;
}

void Simulation::add_mix(int mix_id, int threads_per_member) {
  for (auto& tb :
       workload::spawn_mix(mix_id, threads_per_member, spawn_rng_)) {
    kernel_->fork(std::move(tb));
  }
}

void Simulation::add_thread(workload::ThreadBehavior behavior) {
  kernel_->fork(std::move(behavior));
}

void Simulation::add_benchmark_at(TimeNs at, const std::string& name,
                                  int threads) {
  if (ran_) throw std::logic_error("add_benchmark_at: already running");
  // Validate the name eagerly so failures surface at setup time.
  (void)workload::BenchmarkLibrary::get(name);
  arrivals_.push_back({at, name, threads, {}});
}

void Simulation::add_replay(const workload::ReplaySchedule& schedule) {
  if (ran_) throw std::logic_error("add_replay: already running");
  for (const auto& rt : schedule.tasks) {
    if (rt.spawn_at <= 0) {
      kernel_->fork(rt.behavior);
    } else {
      arrivals_.push_back({rt.spawn_at, {}, 0, {rt.behavior}});
    }
  }
}

void Simulation::apply_arrivals() {
  for (auto it = arrivals_.begin(); it != arrivals_.end();) {
    if (it->at <= kernel_->now()) {
      if (!it->behaviors.empty()) {
        for (const auto& tb : it->behaviors) kernel_->fork(tb);
      } else {
        add_benchmark(it->benchmark, it->threads);
      }
      it = arrivals_.erase(it);
    } else {
      ++it;
    }
  }
}

void Simulation::set_balancer(std::unique_ptr<os::LoadBalancer> balancer) {
  kernel_->set_balancer(std::move(balancer));
}

void Simulation::prepare_run() {
  sampled_ = cfg_.thermal_enabled || !cfg_.trace_path.empty();
  if (cfg_.thermal_enabled) {
    thermal_ =
        std::make_unique<power::ThermalModel>(platform_, cfg_.thermal);
    max_temp_seen_c_ = thermal_->max_temperature_c();
  }
  if (!cfg_.trace_path.empty()) {
    trace_ = std::make_unique<CsvWriter>(
        cfg_.trace_path,
        std::vector<std::string>{"time_ms", "core", "power_w", "temp_c",
                                 "nr_running", "freq_mhz"});
  }
  if (sampled_) {
    prev_core_joules_.assign(static_cast<std::size_t>(platform_.num_cores()),
                             0.0);
  }
  if (obs_ && obs_->timeseries() != nullptr) {
    ts_sampler_ = std::make_unique<TimeseriesSampler>(platform_, *obs_);
    ts_last_ = kernel_->now();
    ts_next_ = ts_last_ + obs_->timeseries()->window();
  }
}

// Runs the sampler for every window boundary the last step crossed (the
// stepping loops cap chunks at ts_next_, so this fires at exact boundaries).
void Simulation::ts_tick() {
  if (!ts_sampler_) return;
  while (kernel_->now() >= ts_next_) {
    ts_sampler_->tick(*kernel_, ts_next_, ts_next_ - ts_last_);
    ts_last_ = ts_next_;
    ts_next_ += obs_->timeseries()->window();
  }
}

SimulationResult Simulation::run() {
  if (ran_) throw std::logic_error("Simulation::run called twice");
  ran_ = true;
  prepare_run();
  apply_arrivals();  // arrivals due at the start fork before the first step

  if (cfg_.run_to_completion || sampled_ || ts_sampler_ != nullptr ||
      !arrivals_.empty()) {
    // Epoch-sized steps unless sampling asks for finer ones.
    step_until(cfg_.duration, milliseconds(20), cfg_.run_to_completion);
  } else {
    kernel_->run_until(cfg_.duration);
  }
  return snapshot();
}

void Simulation::step_until(TimeNs until, TimeNs max_step,
                            bool stop_when_done) {
  const TimeNs cap = sampled_ ? kSampleInterval : max_step;
  while (kernel_->now() < until &&
         !(stop_when_done && kernel_->all_exited() && arrivals_.empty())) {
    TimeNs chunk = until - kernel_->now();
    if (cap > 0) chunk = std::min(chunk, cap);
    if (ts_sampler_) chunk = std::min(chunk, ts_next_ - kernel_->now());
    for (const Arrival& a : arrivals_) {
      if (a.at > kernel_->now()) {
        chunk = std::min(chunk, a.at - kernel_->now());
      }
    }
    kernel_->run_for(chunk);
    apply_arrivals();
    if (sampled_) sample_tick(chunk);
    ts_tick();
  }
}

void Simulation::begin_service() {
  if (ran_) throw std::logic_error("begin_service: simulation already run");
  ran_ = true;
  service_ = true;
  prepare_run();
  apply_arrivals();
}

void Simulation::advance_service(TimeNs dt) {
  if (!service_) throw std::logic_error("advance_service: not in service mode");
  step_until(kernel_->now() + dt, /*max_step=*/0, /*stop_when_done=*/false);
}

SimulationResult Simulation::finish_service() {
  if (!service_) throw std::logic_error("finish_service: not in service mode");
  service_ = false;
  return snapshot();
}

void Simulation::sample_tick(TimeNs window) {
  if (window <= 0) return;
  std::vector<double> power(static_cast<std::size_t>(platform_.num_cores()));
  for (CoreId c = 0; c < platform_.num_cores(); ++c) {
    const auto i = static_cast<std::size_t>(c);
    const double joules = kernel_->energy().total_joules(c);
    power[i] = (joules - prev_core_joules_[i]) / to_seconds(window);
    prev_core_joules_[i] = joules;
  }
  if (thermal_) {
    thermal_->step(power, window);
    max_temp_seen_c_ = std::max(max_temp_seen_c_, thermal_->max_temperature_c());
  }
  if (trace_) {
    for (CoreId c = 0; c < platform_.num_cores(); ++c) {
      trace_->row(std::vector<double>{
          to_millis(kernel_->now()), static_cast<double>(c),
          power[static_cast<std::size_t>(c)],
          thermal_ ? thermal_->temperature_c(c) : 0.0,
          static_cast<double>(kernel_->core_nr_running(c)),
          kernel_->core_opp(c).freq_mhz});
    }
  }
}

SimulationResult Simulation::snapshot() const {
  SimulationResult r;
  r.label = cfg_.label;
  r.policy = kernel_->balancer() ? kernel_->balancer()->name() : "none";
  r.simulated = kernel_->now();
  r.instructions = kernel_->total_instructions();
  r.energy_j = kernel_->energy().total_joules();
  const double secs = to_seconds(r.simulated);
  r.ips = secs > 0 ? static_cast<double>(r.instructions) / secs : 0;
  r.watts = secs > 0 ? r.energy_j / secs : 0;
  r.ips_per_watt =
      r.energy_j > 0 ? static_cast<double>(r.instructions) / r.energy_j : 0;
  r.migrations = kernel_->total_migrations();
  r.context_switches = kernel_->context_switches();
  r.balance_passes = kernel_->balance_passes();

  for (CoreId c = 0; c < platform_.num_cores(); ++c) {
    CoreMetrics cm;
    cm.id = c;
    cm.type_name = platform_.params_of(c).name;
    cm.instructions = kernel_->core_instructions(c);
    cm.energy_j = kernel_->energy().total_joules(c);
    cm.busy_ns = kernel_->energy().busy_time(c);
    cm.sleep_ns = kernel_->energy().sleep_time(c);
    cm.avg_power_w = secs > 0 ? cm.energy_j / secs : 0;
    cm.ips = secs > 0 ? static_cast<double>(cm.instructions) / secs : 0;
    cm.ips_per_watt = cm.energy_j > 0
                          ? static_cast<double>(cm.instructions) / cm.energy_j
                          : 0;
    cm.utilization = r.simulated > 0 ? static_cast<double>(cm.busy_ns) /
                                           static_cast<double>(r.simulated)
                                     : 0;
    r.cores.push_back(cm);
  }

  double wait_sum = 0;
  std::uint64_t dispatches = 0;
  r.threads.reserve(kernel_->num_tasks());
  for (std::size_t i = 0; i < kernel_->num_tasks(); ++i) {
    const auto tid = static_cast<ThreadId>(i);
    os::TaskRecord t = kernel_->record(tid);
    ThreadMetrics tm;
    tm.tid = tid;
    tm.name = std::move(t.name);
    tm.instructions = t.lifetime_insts;
    tm.energy_j = t.lifetime_energy_j;
    tm.runtime = t.lifetime_runtime;
    tm.migrations = t.migrations;
    tm.completed = t.exited();
    tm.completion_time = t.exited_at;
    if (t.dispatches > 0) {
      tm.avg_wait_us = static_cast<double>(t.total_wait) /
                       static_cast<double>(t.dispatches) / 1e3;
    }
    tm.max_wait_us = static_cast<double>(t.max_wait) / 1e3;
    r.max_sched_latency_us = std::max(r.max_sched_latency_us, tm.max_wait_us);
    wait_sum += static_cast<double>(t.total_wait);
    dispatches += t.dispatches;
    r.threads.push_back(std::move(tm));
  }
  if (dispatches > 0) {
    r.avg_sched_latency_us = wait_sum / static_cast<double>(dispatches) / 1e3;
  }

  {
    const auto& waits = kernel_->wake_latencies();
    std::vector<std::uint64_t> sample;
    sample.reserve(waits.size());
    for (TimeNs w : waits) sample.push_back(static_cast<std::uint64_t>(w));
    r.wake_to_run = tail_of(sample);
  }

  r.dvfs_transitions = kernel_->dvfs_transitions();
  if (thermal_) {
    r.max_temp_c = max_temp_seen_c_;
    r.final_temp_c = thermal_->temperatures_c();
  }

  if (const auto* sb = dynamic_cast<const core::SmartBalancePolicy*>(
          kernel_->balancer())) {
    r.avg_sense_us = sb->sense_ns().mean() / 1e3;
    r.avg_predict_us = sb->predict_ns().mean() / 1e3;
    r.avg_optimize_us = sb->optimize_ns().mean() / 1e3;
    r.avg_migrations_per_pass = sb->migrations_per_pass().mean();
    if (sb->injector()) {
      r.faults_injected = sb->injector()->stats().total();
    }
    r.faults_detected = sb->faults_detected();
    r.faults_absorbed = sb->faults_absorbed();
    r.degraded_passes = sb->degraded_passes();
    if (sb->defenses_enabled()) {
      r.healthy_fraction = sb->sensing_health().healthy_fraction;
    }
    if (const auto* adapter = sb->adapter()) {
      r.adapt_joins = adapter->joins();
      r.adapt_rls_updates = adapter->rls_updates();
      r.adapt_cov_resets = adapter->cov_resets();
    }
    if (const auto& sharded = sb->sharded();
        sharded.partition().num_shards() > 1) {
      r.shards = sharded.partition().num_shards();
      r.shard_passes = sharded.shard_passes_total();
      r.shard_exchange_moves = sharded.exchange_moves_total();
      r.avg_exchange_us = sharded.exchange_ns().mean() / 1e3;
    }
  }
  r.migrations_rejected = kernel_->migrations_rejected();
  r.migrations_deferred = kernel_->migrations_deferred();
  if (obs_) {
    r.obs = std::make_shared<obs::RunObs>(obs_->snapshot(cfg_.label));
  }
  return r;
}

}  // namespace sb::sim
