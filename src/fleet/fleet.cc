#include "fleet/fleet.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <iomanip>
#include <ostream>
#include <stdexcept>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/smart_balance.h"
#include "core/trainer.h"
#include "obs/store.h"
#include "sim/experiment.h"
#include "sim/simulation.h"
#include "workload/benchmarks.h"
#include "workload/sched_replay.h"

namespace sb::fleet {

namespace {

/// Shape key for the eff-table cache: per-core type name + nominal
/// frequency fully determines the trained model and every synthesized
/// observation (training and synthesis are deterministic per shape).
std::string shape_key_of(const arch::Platform& p) {
  std::string key;
  for (CoreId c = 0; c < p.num_cores(); ++c) {
    const auto& params = p.params_of(c);
    key += params.name;
    key += '@';
    key += std::to_string(params.freq_mhz);
    key += ';';
  }
  return key;
}

workload::ArrivalProcess::Config make_arrival_config(const FleetConfig& cfg,
                                                     int num_classes) {
  workload::ArrivalProcess::Config acfg;
  acfg.rate_hz = cfg.rate_hz;
  acfg.num_classes = num_classes;
  acfg.seed = cfg.seed ^ 0x61727276ULL;  // "arrv"
  return acfg;
}

std::vector<JobClass> validated_catalog(std::vector<JobClass> catalog) {
  if (catalog.empty()) {
    throw std::invalid_argument("FleetSimulation: empty job catalog");
  }
  for (const auto& jc : catalog) {
    // Validate names eagerly so failures surface at construction time.
    (void)workload::BenchmarkLibrary::get(jc.benchmark);
    if (jc.threads < 1 || jc.threads > 256) {
      throw std::invalid_argument("FleetSimulation: job class '" +
                                  jc.benchmark +
                                  "' threads out of [1, 256]");
    }
    if (jc.per_thread_instructions == 0) {
      throw std::invalid_argument("FleetSimulation: job class '" +
                                  jc.benchmark +
                                  "' needs a finite instruction budget");
    }
  }
  return catalog;
}

}  // namespace

std::vector<JobClass> default_catalog() {
  // Zipf rank 0 is the most popular class; keep the head light (small
  // request-like kernels) and the tail heavier (batch-like multi-thread
  // jobs) — the skew real request streams show.
  return {
      {"blackscholes", 1, 8'000'000},
      {"swaptions", 2, 6'000'000},
      {"bodytrack", 2, 10'000'000},
      {"ferret", 1, 16'000'000},
      {"canneal", 1, 10'000'000},
      {"streamcluster", 2, 12'000'000},
      {"freqmine", 4, 8'000'000},
      {"x264_H_crew", 2, 14'000'000},
  };
}

// --- FleetSimulation ------------------------------------------------------

struct FleetSimulation::PendingJob {
  std::uint64_t id = 0;
};

struct FleetSimulation::Node {
  arch::Platform platform;
  std::string shape_key;
  std::unique_ptr<sim::Simulation> sim;
  /// Trained predictor of this node's SmartBalance policy (null for
  /// vanilla nodes — the eff table then uses direct model synthesis).
  const core::PredictorModel* model = nullptr;
  /// This shape's eff_cache_ entry, resolved at the first dispatch
  /// (std::map values are pointer-stable).
  const std::vector<std::vector<double>>* eff = nullptr;

  struct Active {
    std::uint64_t job = 0;
    std::vector<ThreadId> tids;
  };
  std::vector<Active> active;
  /// Live (not yet exited) fleet-job threads, refreshed every quantum.
  int live_threads = 0;
  /// Core count per type (index = CoreTypeId), for the availability scan.
  std::vector<int> type_cores;
};

FleetSimulation::FleetSimulation(FleetConfig cfg,
                                 std::vector<arch::Platform> node_platforms,
                                 std::vector<JobClass> catalog)
    : cfg_((cfg.validate(), cfg)),
      catalog_(validated_catalog(std::move(catalog))),
      dispatcher_(make_dispatcher(cfg_)),
      arrivals_(make_arrival_config(cfg_, static_cast<int>(catalog_.size()))),
      step_workers_(common::resolve_jobs(cfg_.step_jobs)) {
  if (node_platforms.empty()) {
    throw std::invalid_argument("FleetSimulation: no node platforms");
  }
  if (node_platforms.size() != 1 &&
      node_platforms.size() != static_cast<std::size_t>(cfg_.nodes)) {
    throw std::invalid_argument(
        "FleetSimulation: need 1 platform (replicated) or exactly "
        "cfg.nodes platforms");
  }
  if (cfg_.obs.enabled()) {
    obs_ = std::make_unique<obs::Sink>(cfg_.obs);
    ts_next_ = cfg_.obs.timeseries.window;
    if (obs::TimeseriesRecorder* rec = obs_->timeseries()) {
      SignalIds& ids = ts_ids_;
      ids.je = rec->intern("je");
      ids.je_w = rec->intern("je_w");
      ids.gips = rec->intern("gips");
      ids.watts = rec->intern("watts");
      ids.pending = rec->intern("fleet.pending");
      ids.arrived = rec->intern("fleet.jobs.arrived");
      ids.dispatched = rec->intern("fleet.jobs.dispatched");
      ids.completed = rec->intern("fleet.jobs.completed");
      ids.deferred = rec->intern("fleet.jobs.deferred");
      ids.p99_wake_us = rec->intern("p99_wake_us");
      for (int i = 0; i < cfg_.nodes; ++i) {
        const std::string node = "node." + std::to_string(i);
        ids.live_threads.push_back(rec->intern(node + ".live_threads"));
        ids.active_jobs.push_back(rec->intern(node + ".active_jobs"));
      }
    }
  }
  if (!cfg_.arrival_replay.empty()) {
    // Replace the MMPP clock with the trace's spawn instants. The trace is
    // pure data, so the stream stays identical across dispatch policies and
    // worker counts — the same determinism contract the MMPP source keeps.
    const workload::ReplayTrace trace =
        workload::load_replay_trace_file(cfg_.arrival_replay);
    replay_span_ = trace.span();
    const int classes = static_cast<int>(catalog_.size());
    for (const auto& e : trace.events) {
      if (e.kind != workload::ReplayEvent::Kind::Spawn) continue;
      workload::JobArrival a;
      a.at = e.at;
      a.job_class = workload::replay_class_of(e.task, classes);
      replay_base_.push_back(a);
    }
  }
  build_nodes(node_platforms);
}

FleetSimulation::~FleetSimulation() = default;

void FleetSimulation::build_nodes(
    const std::vector<arch::Platform>& platforms) {
  // One factory for the whole fleet: a SmartBalance factory caches its
  // trained model per platform shape, so a 16-node fleet of two shapes
  // trains exactly twice.
  const sim::BalancerFactory factory = sim::policy_factory(cfg_.node_policy);
  nodes_.reserve(static_cast<std::size_t>(cfg_.nodes));
  for (int i = 0; i < cfg_.nodes; ++i) {
    auto node = std::make_unique<Node>();
    node->platform =
        platforms.size() == 1 ? platforms[0]
                              : platforms[static_cast<std::size_t>(i)];
    node->shape_key = shape_key_of(node->platform);
    node->type_cores.assign(
        static_cast<std::size_t>(node->platform.num_types()), 0);
    for (CoreId c = 0; c < node->platform.num_cores(); ++c) {
      ++node->type_cores[static_cast<std::size_t>(node->platform.type_of(c))];
    }
    sim::SimulationConfig scfg;
    // Golden-ratio stride keeps node seeds well separated while staying a
    // pure function of (fleet seed, node index) — never of the policy.
    scfg.seed = cfg_.seed + static_cast<std::uint64_t>(i + 1) *
                                0x9e3779b97f4a7c15ULL;
    scfg.label = "node" + std::to_string(i);
    scfg.obs.metrics = cfg_.node_obs;
    // With node_obs, every node runs its own sampler at the fleet cadence;
    // the per-node series ride into the export as run = node index + 1.
    // SLO objectives stay fleet-level (they score the fleet's signals).
    if (cfg_.node_obs &&
        (cfg_.obs.timeseries.enabled || !cfg_.obs.slo.empty())) {
      scfg.obs.timeseries = cfg_.obs.timeseries;
      scfg.obs.timeseries.enabled = true;
    }
    node->sim = std::make_unique<sim::Simulation>(node->platform, scfg);
    node->sim->set_balancer(factory(*node->sim));
    if (const auto* sb = dynamic_cast<const core::SmartBalancePolicy*>(
            node->sim->kernel().balancer())) {
      node->model = &sb->model();
    }
    node->sim->begin_service();
    nodes_.push_back(std::move(node));
  }
}

const std::vector<std::vector<double>>& FleetSimulation::eff_table(
    const Node& n) {
  auto it = eff_cache_.find(n.shape_key);
  if (it == eff_cache_.end()) {
    // Build the full per-class x per-type table for this shape in one
    // pass. Synthesis is noise-free (counter_noise = 0) and every call
    // gets a fresh fixed-seed Rng, so the table is independent of
    // evaluation order.
    core::PredictorTrainer::Config tcfg;
    tcfg.counter_noise = 0.0;
    const core::PredictorTrainer trainer(n.sim->perf_model(),
                                         n.sim->power_model(), tcfg);
    std::vector<std::vector<double>> effs(
        catalog_.size(),
        std::vector<double>(static_cast<std::size_t>(n.platform.num_types()),
                            0.0));
    for (std::size_t c = 0; c < catalog_.size(); ++c) {
      const auto& bench =
          workload::BenchmarkLibrary::get(catalog_[c].benchmark);
      const workload::WorkloadProfile& profile = bench.phases.front().profile;
      if (n.model != nullptr) {
        // SmartBalance node: score with *its* trained predictor — the same
        // model its balancer migrates by, so fleet placement and node
        // balancing agree on what efficient means.
        Rng rng(0x666c6565ULL ^ (static_cast<std::uint64_t>(c) << 8));
        const core::ThreadObservation obs =
            trainer.synthesize_observation(profile, 0, rng);
        for (CoreTypeId t = 0; t < n.platform.num_types(); ++t) {
          const double freq = n.platform.params_of_type(t).freq_mhz;
          const double ipc_hat =
              n.model->predict_ipc(obs, t, obs.freq_mhz, freq);
          const double p_hat = n.model->predict_power(t, ipc_hat);
          if (p_hat <= 0) continue;
          effs[c][static_cast<std::size_t>(t)] = ipc_hat * freq * 1e6 / p_hat;
        }
      } else {
        // Vanilla node: no trained predictor; fall back to the mechanistic
        // profile evaluation per type (instructions/s over watts).
        for (CoreTypeId t = 0; t < n.platform.num_types(); ++t) {
          Rng rng(0x76616e00ULL ^ (static_cast<std::uint64_t>(c) << 8) ^
                  static_cast<std::uint64_t>(t));
          const core::ThreadObservation obs =
              trainer.synthesize_observation(profile, t, rng);
          if (obs.power_w > 0) {
            effs[c][static_cast<std::size_t>(t)] = obs.ips / obs.power_w;
          }
        }
      }
    }
    it = eff_cache_.emplace(n.shape_key, std::move(effs)).first;
  }
  return it->second;
}

double FleetSimulation::best_eff_ipj(int node, int job_class) {
  Node& n = *nodes_[static_cast<std::size_t>(node)];
  if (n.eff == nullptr) n.eff = &eff_table(n);
  const auto& per_type =
      (*n.eff)[static_cast<std::size_t>(job_class) % catalog_.size()];

  // Availability scan: count the node's cores currently hosting a live
  // fleet thread, per type. A node whose efficient cores are all taken
  // should not keep winning placements on their reputation.
  std::vector<int>& busy = busy_counts_;
  busy.assign(per_type.size(), 0);
  const os::Kernel& kernel = n.sim->kernel();
  for (const auto& a : n.active) {
    for (const ThreadId tid : a.tids) {
      if (!kernel.alive(tid)) continue;
      const CoreId cpu = kernel.task(tid).cpu;
      if (cpu != kInvalidCore) {
        ++busy[static_cast<std::size_t>(n.platform.type_of(cpu))];
      }
    }
  }
  // The node's balancer — not the fleet — decides which cores the job's
  // threads actually run on, and SmartBalance spreads load across the whole
  // node. The honest marginal efficiency is therefore the harmonic mean of
  // the per-type predictions over the cores still free (free-core-count
  // weighted): joules per instruction average linearly, efficiency does
  // not. Falls back to all cores when the node is fully busy.
  for (int pass = 0; pass < 2; ++pass) {
    double weight = 0.0;
    double joules_per_inst = 0.0;
    for (CoreTypeId t = 0; t < n.platform.num_types(); ++t) {
      const auto ti = static_cast<std::size_t>(t);
      const int count = pass == 0
                            ? std::max(0, n.type_cores[ti] - busy[ti])
                            : n.type_cores[ti];
      if (count <= 0 || per_type[ti] <= 0) continue;
      weight += count;
      joules_per_inst += count / per_type[ti];
    }
    if (weight > 0) return weight / joules_per_inst;
  }
  return 0.0;
}

NodeView FleetSimulation::view_of(int node, int job_class) {
  const Node& n = *nodes_[static_cast<std::size_t>(node)];
  NodeView v;
  v.index = node;
  v.cores = n.platform.num_cores();
  v.runnable_threads = n.live_threads;
  v.idle = n.active.empty();
  v.best_eff_ipj = best_eff_ipj(node, job_class);
  return v;
}

workload::JobArrival FleetSimulation::next_arrival_event() {
  if (replay_base_.empty()) return arrivals_.next();
  if (replay_idx_ >= replay_base_.size()) {
    if (replay_span_ <= 0) {
      // A zero-span trace (every spawn at one instant) cannot loop; close
      // the stream by handing back an arrival beyond the window.
      workload::JobArrival done;
      done.at = cfg_.duration;
      return done;
    }
    replay_idx_ = 0;
    replay_offset_ += replay_span_;
  }
  workload::JobArrival a = replay_base_[replay_idx_++];
  a.at += replay_offset_;
  a.id = replay_next_id_++;
  return a;
}

void FleetSimulation::pull_arrivals(TimeNs until) {
  while (!arrivals_done_) {
    if (!have_next_arrival_) {
      next_arrival_ = next_arrival_event();
      have_next_arrival_ = true;
      if (next_arrival_.at >= cfg_.duration) {
        // The stream is infinite; stop drawing once it leaves the window.
        arrivals_done_ = true;
        break;
      }
    }
    if (next_arrival_.at > until) break;
    JobRecord rec;
    rec.id = next_arrival_.id;
    rec.job_class = next_arrival_.job_class;
    rec.arrival = next_arrival_.at;
    jobs_.push_back(rec);
    pending_.push_back(PendingJob{rec.id});
    if (obs_) obs_->metrics().counter("fleet.jobs.arrived").add();
    have_next_arrival_ = false;
  }
}

void FleetSimulation::dispatch_pending(TimeNs now, std::uint64_t quantum_idx) {
  while (!pending_.empty()) {
    JobRecord& rec = jobs_[static_cast<std::size_t>(pending_.front().id)];
    const JobClass& jc =
        catalog_[static_cast<std::size_t>(rec.job_class) % catalog_.size()];
    JobView jv;
    jv.job_class = rec.job_class;
    jv.threads = jc.threads;
    jv.total_instructions =
        jc.per_thread_instructions * static_cast<std::uint64_t>(jc.threads);
    std::vector<NodeView> views;
    views.reserve(nodes_.size());
    for (int i = 0; i < cfg_.nodes; ++i) {
      views.push_back(view_of(i, rec.job_class));
    }
    const int picked = dispatcher_->pick(jv, views);
    if (picked < 0 || picked >= cfg_.nodes) {
      // FIFO head-of-line: a deferred head blocks the queue so job order
      // (and therefore per-node admission order) stays deterministic.
      ++jobs_deferred_;
      if (obs_) obs_->metrics().counter("fleet.jobs.deferred").add();
      break;
    }
    Node& n = *nodes_[static_cast<std::size_t>(picked)];
    Node::Active active;
    active.job = rec.id;
    active.tids =
        n.sim->admit_benchmark(jc.benchmark, jc.threads,
                               jc.per_thread_instructions);
    n.active.push_back(std::move(active));
    n.live_threads += jc.threads;
    rec.node = picked;
    rec.admitted = now;
    if (obs_) {
      obs_->metrics().counter("fleet.jobs.dispatched").add();
      obs_->metrics()
          .histogram("fleet.job.queue_ns")
          .record(static_cast<std::uint64_t>(rec.admitted - rec.arrival));
      if (auto* tracer = obs_->tracer()) {
        tracer->instant("fleet.dispatch", static_cast<std::uint64_t>(now),
                        quantum_idx,
                        {{"node", static_cast<double>(picked)},
                         {"class", static_cast<double>(rec.job_class)},
                         {"queue_ns",
                          static_cast<double>(rec.admitted - rec.arrival)}});
      }
    }
    pending_.erase(pending_.begin());
  }
}

void FleetSimulation::step_nodes(TimeNs dt) {
  common::parallel_for(nodes_.size(), step_workers_,
                       [&](std::size_t i, int /*worker*/) {
                         nodes_[i]->sim->advance_service(dt);
                       });
}

void FleetSimulation::sample_timeseries(TimeNs now) {
  if (!obs_ || obs_->timeseries() == nullptr) return;
  obs::TimeseriesRecorder& rec = *obs_->timeseries();
  obs::MetricsRegistry& m = obs_->metrics();
  while (ts_next_ <= now) {
    double insts = 0;
    double joules = 0;
    for (const auto& np : nodes_) {
      insts += static_cast<double>(np->sim->kernel().total_instructions());
      joules += np->sim->kernel().energy().total_joules();
    }
    const double secs = to_seconds(ts_next_ - ts_last_);
    const SignalIds& ids = ts_ids_;
    rec.begin_frame(static_cast<std::uint64_t>(ts_next_));
    rec.record(ids.je, joules > 0 ? insts / joules : 0.0);
    // Windowed efficiency: inst/J over this frame alone. Unlike cumulative
    // J_E it has no cold-start ramp and tracks the rack's *current*
    // operating point — the natural target for burn-rate SLO floors.
    const double d_joules = joules - ts_prev_joules_;
    rec.record(ids.je_w,
               d_joules > 0 ? (insts - ts_prev_insts_) / d_joules : 0.0);
    rec.record(ids.gips, (insts - ts_prev_insts_) / secs / 1e9);
    rec.record(ids.watts, (joules - ts_prev_joules_) / secs);
    ts_prev_insts_ = insts;
    ts_prev_joules_ = joules;
    rec.record(ids.pending, static_cast<double>(pending_.size()));
    rec.record(ids.arrived, static_cast<double>(jobs_.size()));
    rec.record(ids.dispatched,
               static_cast<double>(m.counter("fleet.jobs.dispatched").value));
    rec.record(ids.completed,
               static_cast<double>(m.counter("fleet.jobs.completed").value));
    rec.record(ids.deferred, static_cast<double>(jobs_deferred_));
    const obs::Histogram& wake = m.histogram("fleet.job.wake_to_run_ns");
    rec.record(ids.p99_wake_us,
               wake.count() > 0
                   ? static_cast<double>(wake.quantile(0.99)) / 1e3
                   : 0.0);
    for (std::size_t i = 0; i < nodes_.size(); ++i) {
      rec.record(ids.live_threads[i],
                 static_cast<double>(nodes_[i]->live_threads));
      rec.record(ids.active_jobs[i],
                 static_cast<double>(nodes_[i]->active.size()));
    }
    obs_->complete_frame();
    ts_last_ = ts_next_;
    ts_next_ += cfg_.obs.timeseries.window;
  }
}

void FleetSimulation::scan_completions() {
  for (auto& node_ptr : nodes_) {
    Node& n = *node_ptr;
    int live = 0;
    for (auto it = n.active.begin(); it != n.active.end();) {
      JobRecord& rec = jobs_[static_cast<std::size_t>(it->job)];
      bool all_exited = true;
      TimeNs latest_exit = 0;
      TimeNs earliest_run = kTimeNever;
      for (ThreadId tid : it->tids) {
        const os::TaskRecord t = n.sim->kernel().record(tid);
        if (t.first_dispatched_at != kTimeNever) {
          earliest_run = std::min(earliest_run, t.first_dispatched_at);
        }
        if (t.exited()) {
          latest_exit = std::max(latest_exit, t.exited_at);
        } else {
          all_exited = false;
          ++live;
        }
      }
      if (rec.first_run == kTimeNever && earliest_run != kTimeNever) {
        rec.first_run = earliest_run;
        if (obs_) {
          obs_->metrics()
              .histogram("fleet.job.wake_to_run_ns")
              .record(static_cast<std::uint64_t>(rec.first_run -
                                                 rec.admitted));
        }
      }
      if (all_exited) {
        rec.completed = latest_exit;
        if (obs_) {
          obs_->metrics().counter("fleet.jobs.completed").add();
          obs_->metrics()
              .histogram("fleet.job.sojourn_ns")
              .record(static_cast<std::uint64_t>(rec.completed -
                                                 rec.arrival));
        }
        it = n.active.erase(it);
      } else {
        ++it;
      }
    }
    n.live_threads = live;
  }
}

FleetResult FleetSimulation::run() {
  if (ran_) throw std::logic_error("FleetSimulation::run called twice");
  ran_ = true;

  TimeNs t = 0;
  std::uint64_t quantum_idx = 0;
  while (t < cfg_.duration) {
    const TimeNs step = std::min(cfg_.quantum, cfg_.duration - t);
    if (obs_) obs_->begin_epoch(quantum_idx, static_cast<std::uint64_t>(t));
    pull_arrivals(t);
    const std::size_t queued_before = pending_.size();
    dispatch_pending(t, quantum_idx);
    const std::size_t dispatched_now = queued_before - pending_.size();
    step_nodes(step);
    scan_completions();
    sample_timeseries(t + step);
    if (obs_ && obs_->tracer() != nullptr) {
      // Simulated timeline, simulated duration: the span is a deterministic
      // function of the run, unlike the wall-clock spans of the balancing
      // loop — the fleet trace diffs clean across worker counts.
      obs_->tracer()->span(
          "fleet.quantum", static_cast<std::uint64_t>(t),
          static_cast<std::uint64_t>(step), quantum_idx,
          {{"dispatched", static_cast<double>(dispatched_now)},
           {"queued", static_cast<double>(pending_.size())},
           {"nodes", static_cast<double>(cfg_.nodes)}});
    }
    t += step;
    ++quantum_idx;
  }

  FleetResult r;
  r.dispatch_policy = dispatcher_->name();
  r.node_policy = cfg_.node_policy;
  r.nodes = cfg_.nodes;
  r.simulated = t;
  r.jobs_arrived = jobs_.size();
  r.jobs_deferred = jobs_deferred_;

  std::vector<std::uint64_t> queue_ns, wake_ns, sojourn_ns, arrival_to_run_ns;
  for (const JobRecord& j : jobs_) {
    if (j.admitted == kTimeNever) continue;
    ++r.jobs_dispatched;
    queue_ns.push_back(static_cast<std::uint64_t>(j.admitted - j.arrival));
    if (j.first_run == kTimeNever) continue;
    wake_ns.push_back(static_cast<std::uint64_t>(j.first_run - j.admitted));
    arrival_to_run_ns.push_back(
        static_cast<std::uint64_t>(j.first_run - j.arrival));
    if (j.completed == kTimeNever) continue;
    ++r.jobs_completed;
    sojourn_ns.push_back(static_cast<std::uint64_t>(j.completed - j.arrival));
  }
  r.queue = tail_of(queue_ns);
  r.wake = tail_of(wake_ns);
  r.sojourn = tail_of(sojourn_ns);
  r.p99_dispatch_to_run_ns = nearest_rank(arrival_to_run_ns, 0.99);
  r.jobs = jobs_;

  r.node_results.reserve(nodes_.size());
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    sim::SimulationResult res = nodes_[i]->sim->finish_service();
    r.instructions += res.instructions;
    r.energy_j += res.energy_j;
    if (res.obs) {
      auto node_obs = std::make_shared<obs::RunObs>(*res.obs);
      node_obs->run = static_cast<int>(i) + 1;  // 0 is the fleet itself
      r.node_obs.push_back(std::move(node_obs));
    }
    r.node_results.push_back(std::move(res));
  }
  r.je_inst_per_joule =
      r.energy_j > 0 ? static_cast<double>(r.instructions) / r.energy_j : 0;

  if (obs_) {
    auto& m = obs_->metrics();
    m.gauge("fleet.nodes").set(static_cast<double>(cfg_.nodes));
    m.gauge("fleet.je_inst_per_joule").set(r.je_inst_per_joule);
    r.obs = std::make_shared<obs::RunObs>(obs_->snapshot("fleet"));
    r.obs->run = 0;
  }
  return r;
}

// --- JSON export ----------------------------------------------------------

namespace {

void tail_json(std::ostream& os, const char* key, const LatencyTail& t) {
  os << "\"" << key << "\":{\"count\":" << t.count << ",\"mean_ns\":"
     << t.mean_ns << ",\"p50_ns\":" << t.p50_ns << ",\"p95_ns\":" << t.p95_ns
     << ",\"p99_ns\":" << t.p99_ns << ",\"max_ns\":" << t.max_ns << "}";
}

}  // namespace

void write_fleet_json(std::ostream& os, const FleetResult& r) {
  os << std::setprecision(12);
  os << "{\"dispatch_policy\":";
  obs::json_string(os, r.dispatch_policy);
  os << ",\"node_policy\":";
  obs::json_string(os, r.node_policy);
  os << ",\"nodes\":" << r.nodes << ",\"simulated_ms\":"
     << to_millis(r.simulated) << ",\"jobs\":{\"arrived\":" << r.jobs_arrived
     << ",\"dispatched\":" << r.jobs_dispatched
     << ",\"completed\":" << r.jobs_completed
     << ",\"deferred\":" << r.jobs_deferred << "}";
  os << ",\"instructions\":" << r.instructions << ",\"energy_j\":"
     << r.energy_j << ",\"je_inst_per_joule\":" << r.je_inst_per_joule;
  os << ",";
  tail_json(os, "queue", r.queue);
  os << ",";
  tail_json(os, "wake_to_run", r.wake);
  os << ",";
  tail_json(os, "sojourn", r.sojourn);
  os << ",\"p99_dispatch_to_run_ns\":" << r.p99_dispatch_to_run_ns;
  os << ",\"node_results\":[";
  for (std::size_t i = 0; i < r.node_results.size(); ++i) {
    const auto& n = r.node_results[i];
    if (i) os << ",";
    os << "{\"label\":";
    obs::json_string(os, n.label);
    os << ",\"policy\":";
    obs::json_string(os, n.policy);
    os << ",\"instructions\":" << n.instructions << ",\"energy_j\":"
       << n.energy_j << ",\"ips_per_watt\":" << n.ips_per_watt
       << ",\"migrations\":" << n.migrations << "}";
  }
  os << "]}";
}

}  // namespace sb::fleet
