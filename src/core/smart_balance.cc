#include "core/smart_balance.h"

#include <algorithm>
#include <chrono>

#include "obs/sink.h"

namespace sb::core {
namespace {

using Clock = std::chrono::steady_clock;

/// Degraded mode: with defenses on, when the fraction of threads with
/// healthy sensors (sensing-layer confidence) drops below this, the pass is
/// delegated to a vanilla CFS-style balancer — heterogeneity-blind but
/// sensing-free, so garbage telemetry cannot steer migrations.
constexpr double kDegradedHealthyThreshold = 0.5;

/// Seed of the policy's own randomness: the sensing noise stream and every
/// pass's annealing trajectory derive from it.
constexpr std::uint64_t kPolicySeed = 99;

TimeNs elapsed_ns(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

/// Observed analogue of the balancing objective: the same per-core sums the
/// optimizer predicts, rebuilt from what sensing actually measured this
/// epoch (occupancy = utilization, GIPS = duty-cycled measured throughput).
/// This is the ground truth the audit recorder scores predicted ΔJ against;
/// it feeds nothing back into the balancing decision.
double realized_objective(const std::vector<ThreadObservation>& observations,
                          int num_cores, const BalanceObjective& objective) {
  std::vector<CoreSums> sums(static_cast<std::size_t>(num_cores));
  for (const ThreadObservation& o : observations) {
    if (o.core < 0 || o.core >= num_cores) continue;
    CoreSums& s = sums[static_cast<std::size_t>(o.core)];
    s.gips += o.util * o.ips / 1e9;
    s.watts += o.util * o.power_w;
    s.load += o.util;
    ++s.nthreads;
  }
  return objective.evaluate(sums);
}

}  // namespace

SmartBalancePolicy::SmartBalancePolicy(
    const arch::Platform& platform, PredictorModel model,
    SmartBalanceConfig cfg, std::unique_ptr<BalanceObjective> objective)
    : platform_(platform),
      model_(std::move(model)),
      cfg_(cfg),
      objective_(objective ? std::move(objective)
                           : std::make_unique<EnergyEfficiencyObjective>()),
      sensing_(platform, cfg.sensing, Rng(kPolicySeed ^ 0x5e25ULL),
               cfg.defenses == SmartBalanceConfig::Defenses::kOn ||
                   (cfg.defenses == SmartBalanceConfig::Defenses::kAuto &&
                    !cfg.fault_plan.empty())),
      sharded_(platform, cfg.sharding, cfg.sa_iterations) {
  if (!cfg_.fault_plan.empty()) {
    injector_ = std::make_unique<fault::FaultInjector>(cfg_.fault_plan);
  }
  if (cfg_.adaptation.enabled()) {
    adapter_ = std::make_unique<OnlineAdapter>(cfg_.adaptation, &model_);
  }
}

void SmartBalancePolicy::on_balance(os::Kernel& kernel, TimeNs now) {
  ++passes_;

  // Observability: propagate the kernel's sink (usually installed once by
  // Simulation; trivial pointer stores per pass) and anchor this pass on
  // the simulated timeline. Null sink = everything below is one branch.
  obs::Sink* const obs = kernel.obs();
  obs::EpochTracer* const tracer = obs != nullptr ? obs->tracer() : nullptr;
  sensing_.set_obs(obs);
  if (injector_) injector_->set_obs(obs);
  if (obs != nullptr) {
    obs->begin_epoch(passes_, static_cast<std::uint64_t>(now));
    obs->metrics().counter("epoch.passes").add();
  }
  obs::ScopedSpan epoch_span(obs, "epoch");

  if (injector_) {
    // Key every injection decision to this pass and hook the two live
    // telemetry paths (idempotent after the first pass).
    injector_->begin_epoch(passes_);
    if (kernel.migration_filter() != injector_.get()) {
      kernel.set_migration_filter(injector_.get());
    }
    if (kernel.sensors().fault_hook() != injector_.get()) {
      kernel.sensors().set_fault_hook(injector_.get());
    }
  }

  // ---- Phase 1: SENSE -----------------------------------------------------
  const auto t0 = Clock::now();
  auto samples = kernel.drain_epoch_samples();
  if (injector_) injector_->corrupt(samples);
  // Read every core's power sensor: this is the platform's measurement
  // heartbeat (per-thread energy attribution in EpochSample is derived from
  // the same sensors; reading them keeps their windows aligned per epoch).
  for (CoreId c = 0; c < kernel.num_cores(); ++c) {
    (void)kernel.sensors().read_joules(c);
  }
  const SensingHealthStats pre_health = sensing_.health();
  auto observations = sensing_.observe(samples);
  if (sensing_.defended()) {
    const SensingHealthStats& h = sensing_.health();
    faults_detected_ += (h.implausible_rejected + h.outliers_rejected) -
                        (pre_health.implausible_rejected +
                         pre_health.outliers_rejected);
    faults_absorbed_ += (h.stale_served + h.neutral_served) -
                        (pre_health.stale_served + pre_health.neutral_served);
  }
  // Sparse virtual sensing (§6.4): cores without a physical power sensor
  // fall back to the Eq. 9 interpolation as a virtual sensor.
  if (!cfg_.power_sensor_cores.all()) {
    for (auto& o : observations) {
      if (o.core >= 0 && o.core_type >= 0 &&
          !cfg_.power_sensor_cores.test(static_cast<std::size_t>(o.core))) {
        o.power_w = model_.predict_power(o.core_type, o.ipc);
      }
    }
  }
  const auto t1 = Clock::now();
  const auto sense_ns = static_cast<std::uint64_t>(elapsed_ns(t0, t1));
  sense_ns_.add(static_cast<double>(sense_ns));
  if (obs != nullptr) {
    obs->metrics().histogram("epoch.sense_ns").record(sense_ns);
  }
  // The sense span follows the pass's instants on the trace.
  const auto trace_sense = [&] {
    if (tracer != nullptr) {
      tracer->span("sense", obs->now_ns(), sense_ns, passes_);
    }
  };

  if (observations.empty()) {
    trace_sense();
    return;
  }

  // Forecast join (Phase A): validate last pass's forecasts against what was
  // actually sensed, once, for both readers below.
  obs::AuditRecorder* const audit = obs != nullptr ? obs->audit() : nullptr;
  const bool forecasting = audit != nullptr || adapter_;
  if (forecasting) {
    std::vector<obs::Observation>& sensed = forecast_log_.sensed();
    for (const ThreadObservation& o : observations) {
      sensed.push_back({o.tid, o.core, o.core_type, o.ips / 1e9, o.power_w,
                        o.ipc, o.measured});
    }
    forecast_log_.join(passes_);
  }

  // Prediction audit (Phase A): ledger the joined forecasts, score the
  // previous decision's realized ΔJ, and advance the drift detector.
  // Strictly read-only: nothing here feeds back into the balancing decision.
  std::int64_t audit_fault_delta = 0;
  if (audit != nullptr) {
    if (injector_) {
      const std::uint64_t total = injector_->stats().total();
      audit_fault_delta = static_cast<std::int64_t>(total - audit_faults_prev_);
      audit_faults_prev_ = total;
    }
    const double realized_j =
        realized_objective(observations, kernel.num_cores(), *objective_);
    const auto edges = audit->join(passes_, forecast_log_, realized_j);
    for (const obs::DriftEvent& ev : edges) {
      obs->metrics().counter("predictor.drift").add();
      if (tracer != nullptr) {
        tracer->instant("predictor.drift", obs->now_ns(), passes_,
                        {{"src_type", static_cast<double>(ev.src_type)},
                         {"dst_type", static_cast<double>(ev.dst_type)},
                         {"metric", static_cast<double>(ev.metric)},
                         {"ewma", ev.ewma}});
      }
    }
  }

  // Online adaptation (Phase A, on the same joined rows): advance the
  // bias/gain correctors, absorb RLS samples into Θ and run the
  // covariance-reset drift detector — all before PREDICT, so this pass's
  // fan-out already uses the repaired coefficients.
  if (adapter_) {
    const AdaptPassStats astats = adapter_->observe(forecast_log_.joined());
    if (obs != nullptr) {
      auto& m = obs->metrics();
      if (astats.joined > 0) {
        m.counter("predictor.adapt.joins")
            .add(static_cast<std::uint64_t>(astats.joined));
      }
      if (astats.rls_updates > 0) {
        m.counter("predictor.adapt.rls_updates")
            .add(static_cast<std::uint64_t>(astats.rls_updates));
      }
      if (astats.cov_resets > 0) {
        m.counter("predictor.adapt.cov_resets")
            .add(static_cast<std::uint64_t>(astats.cov_resets));
        if (tracer != nullptr) {
          tracer->instant(
              "predictor.adapt.reset", obs->now_ns(), passes_,
              {{"resets", static_cast<double>(astats.cov_resets)}});
        }
      }
    }
  }
  // The rows are consumed; this pass's are filled after the balance phase
  // (a degraded pass forecasts nothing).
  std::vector<obs::Forecast>& forecasts = forecast_log_.open(passes_);

  // Degraded mode: when too few threads have trustworthy sensors, predicted
  // S/P matrices are mostly fiction — migrating on them is worse than not
  // using them at all. Delegate the pass to the heterogeneity-blind (but
  // sensing-free) vanilla balancer until health recovers.
  if (sensing_.defended() &&
      sensing_.health().healthy_fraction < kDegradedHealthyThreshold) {
    ++degraded_passes_;
    if (obs != nullptr) {
      obs->metrics().counter("epoch.degraded_passes").add();
      if (tracer != nullptr && !degraded_prev_) {
        tracer->instant(
            "degraded_enter", obs->now_ns(), passes_,
            {{"healthy_fraction", sensing_.health().healthy_fraction}});
      }
    }
    degraded_prev_ = true;
    if (audit != nullptr) {
      // A delegated pass still gets a ledger entry (degraded = 1, nothing
      // applied): next epoch's realized ΔJ then measures how J moves under
      // the fallback, and the forecast gap stays visible in the export.
      obs::EpochAuditRecord d;
      d.epoch = passes_;
      d.healthy_fraction = sensing_.health().healthy_fraction;
      d.degraded = 1;
      d.faults_injected = audit_fault_delta;
      audit->record_decision(d, 0);
    }
    fallback_.on_balance(kernel, now);
    trace_sense();
    return;
  }
  if (degraded_prev_) {
    if (tracer != nullptr) {
      tracer->instant(
          "degraded_exit", obs->now_ns(), passes_,
          {{"healthy_fraction", sensing_.health().healthy_fraction}});
    }
    degraded_prev_ = false;
  }

  // ---- Phase 2: PREDICT ---------------------------------------------------
  if (kernel.config().enable_dvfs) {
    // Predict at each core's *current* operating point.
    std::vector<arch::OperatingPoint> opps;
    opps.reserve(static_cast<std::size_t>(kernel.num_cores()));
    for (CoreId c = 0; c < kernel.num_cores(); ++c) {
      opps.push_back(kernel.core_opp(c));
    }
    last_mx_ = build_characterization(observations, model_, platform_, &opps);
  } else {
    last_mx_ = build_characterization(observations, model_, platform_);
  }
  // Tier 1 bias/gain: multiply every forecast cell by its pair's
  // correction, keeping a raw copy so forecasts are scored (and adapted)
  // against the uncorrected Eq. 8 output. Same-type cells are corrected
  // too: they bypass Θ but still drift against biased sensing (a noisy
  // power rail inflates observed watts on every pair alike). Each class
  // column is corrected once, with the type of its lowest core: columns
  // are numbered in that core order, so core c opens column column_of[c]
  // exactly when that column is the next one not yet seen.
  Matrix raw_s;
  Matrix raw_p;
  if (adapter_ && cfg_.adaptation.bias) {
    raw_s = last_mx_.s;
    raw_p = last_mx_.p;
    std::size_t next_col = 0;
    for (CoreId c = 0; c < kernel.num_cores(); ++c) {
      const std::size_t j = last_mx_.column_of[static_cast<std::size_t>(c)];
      if (j != next_col) continue;
      ++next_col;
      const CoreTypeId t = platform_.type_of(c);
      for (std::size_t i = 0; i < last_mx_.num_threads(); ++i) {
        const CoreTypeId src = observations[i].core_type;
        if (src < 0) continue;
        last_mx_.s.at(i, j) *= adapter_->gips_multiplier(src, t);
        last_mx_.p.at(i, j) *= adapter_->power_multiplier(src, t);
      }
    }
  }
  const auto t2 = Clock::now();

  // ---- Phase 3: BALANCE ---------------------------------------------------
  std::vector<CoreId> initial(last_mx_.num_threads());
  std::vector<std::bitset<kMaxCores>> affinity(last_mx_.num_threads());
  std::vector<double> demand(last_mx_.num_threads());
  std::bitset<kMaxCores> online;
  for (CoreId c = 0; c < kernel.num_cores(); ++c) {
    if (kernel.core_online(c)) online.set(static_cast<std::size_t>(c));
  }
  // A migration stamp older than the cooldown can no longer freeze its
  // thread. Dropping it keeps the map to recent movers; a service-mode node
  // would otherwise hold one entry per exited job forever.
  const auto cooldown = static_cast<std::uint64_t>(
      std::max(0, cfg_.migration_cooldown_epochs));
  std::erase_if(migrated_at_pass_, [&](const auto& stamp) {
    return passes_ - stamp.second > cooldown;
  });
  for (std::size_t i = 0; i < last_mx_.num_threads(); ++i) {
    const auto& t = kernel.task(last_mx_.tids[i]);
    initial[i] = t.cpu;
    affinity[i] = t.cpus_allowed & online;  // hot-unplugged cores excluded
    // Algorithm 1's utilization vector U, in speed-invariant form: the
    // thread's demanded GIPS (duty cycle × measured throughput on its
    // current core). CPU-bound threads (util ≈ 1) have unbounded demand.
    const double u = observations[i].util;
    if (u >= 0.9 || initial[i] < 0) {
      demand[i] = -1.0;
    } else {
      demand[i] = u * last_mx_.gips(i, initial[i]);
    }
    // Migration cooldown: recently moved threads are frozen in place until
    // re-characterized on the new core type.
    if (migrated_at_pass_.contains(t.tid)) {
      affinity[i].reset();
      affinity[i].set(static_cast<std::size_t>(t.cpu));
    }
  }
  // Fresh annealing trajectory each epoch (deterministic per pass index),
  // reusing persistent optimizer scratch arenas — re-seeded, never
  // re-allocated.
  const std::uint64_t pass_seed =
      kPolicySeed ^ (0x0a0aULL + passes_ * 0x9e3779b9ULL);
  const SaResult result = sharded_.balance(
      passes_, pass_seed, last_mx_.s, last_mx_.p, last_mx_.column_of,
      *objective_, initial, affinity, demand, obs, elapsed_ns(t0, t2));
  const auto t3 = Clock::now();

  // Apply the new allocation (set_cpus_allowed_ptr / migrate analogue).
  const double gain_threshold =
      result.initial_objective > 0
          ? result.initial_objective * (1.0 + cfg_.min_relative_gain)
          : 0.0;
  const bool applied = result.objective > gain_threshold;
  last_sa_accept_rate_ =
      result.iterations > 0
          ? static_cast<double>(result.accepted_worse) /
                static_cast<double>(result.iterations)
          : 0.0;

  // One forecast per thread: the S/P cell for wherever it runs next,
  // corrected and raw, with the Eq. 8 row it came from when adapting.
  if (forecasting) {
    const bool have_raw = adapter_ != nullptr && cfg_.adaptation.bias;
    for (std::size_t i = 0; i < last_mx_.num_threads(); ++i) {
      const CoreId next = applied ? result.allocation[i] : initial[i];
      if (next < 0) continue;
      const std::size_t jn =
          last_mx_.column_of[static_cast<std::size_t>(next)];
      const ThreadObservation& o = observations[i];
      obs::Forecast& f = forecasts.emplace_back();
      f.tid = last_mx_.tids[i];
      f.core = next;
      f.src_type = initial[i] >= 0 ? platform_.type_of(initial[i]) : -1;
      f.obs_src_type = o.measured && o.core_type >= 0 ? o.core_type : -1;
      f.dst_type = platform_.type_of(next);
      f.gips = last_mx_.s.at(i, jn);
      f.watts = last_mx_.p.at(i, jn);
      f.raw_gips = have_raw ? raw_s.at(i, jn) : f.gips;
      f.raw_watts = have_raw ? raw_p.at(i, jn) : f.watts;
      if (adapter_ && f.obs_src_type >= 0) {
        const double src_freq =
            o.freq_mhz > 0 ? o.freq_mhz
                           : platform_.params_of_type(o.core_type).freq_mhz;
        const double dst_freq = kernel.config().enable_dvfs
                                    ? kernel.core_opp(next).freq_mhz
                                    : platform_.params_of(next).freq_mhz;
        f.x = make_features(o, src_freq / dst_freq);
      }
    }
  }

  // Prediction audit (Phase B): open this pass's ledger entry before the
  // apply loop so per-migration attribution can be registered against it.
  if (audit != nullptr) {
    obs::EpochAuditRecord d;
    d.epoch = passes_;
    d.initial_j = result.initial_objective;
    d.final_j = result.objective;
    d.applied = applied ? 1 : 0;
    d.pred_dj = applied ? result.objective - result.initial_objective : 0.0;
    if (applied) {
      for (std::size_t i = 0; i < last_mx_.num_threads(); ++i) {
        if (result.allocation[i] != initial[i]) ++d.migrations;
      }
    }
    d.healthy_fraction = sensing_.defended()
                             ? sensing_.health().healthy_fraction
                             : 1.0;
    d.sa_iterations = result.iterations;
    d.sa_accepted_worse = result.accepted_worse;
    d.sa_improved = result.improved;
    d.faults_injected = audit_fault_delta;
    audit->record_decision(d, forecasts.size());
  }

  int migrations = 0;
  if (applied) {
    // Migration instants land at the end of the balance phase on the
    // trace timeline (sense + predict + optimize host time into the pass).
    const auto mig_offset = static_cast<std::uint64_t>(elapsed_ns(t0, t3));
    for (std::size_t i = 0; i < last_mx_.num_threads(); ++i) {
      if (result.allocation[i] != initial[i]) {
        const CoreId src = initial[i];
        kernel.migrate(last_mx_.tids[i], result.allocation[i]);
        migrated_at_pass_[last_mx_.tids[i]] = passes_;
        ++migrations;
        if (audit != nullptr) {
          const CoreId dst = result.allocation[i];
          const double ps = last_mx_.gips(i, dst);
          const double pp = last_mx_.watts(i, dst);
          double src_eff = 0;
          if (src >= 0) {
            const double sp = last_mx_.watts(i, src);
            if (sp > 0) src_eff = last_mx_.gips(i, src) / sp;
          }
          obs::MigrationAuditRecord mr;
          mr.tid = last_mx_.tids[i];
          mr.src = src;
          mr.dst = dst;
          mr.src_type = src >= 0 ? platform_.type_of(src) : -1;
          mr.dst_type = platform_.type_of(dst);
          mr.pred_gain = (pp > 0 ? ps / pp : 0.0) - src_eff;
          audit->record_migration(mr, src_eff);
        }
        if (obs != nullptr) {
          obs->metrics().counter("balance.migrations").add();
          if (tracer != nullptr) {
            tracer->instant(
                "migration", obs->now_ns() + mig_offset, passes_,
                {{"tid", static_cast<double>(last_mx_.tids[i])},
                 {"src", static_cast<double>(src)},
                 {"dst", static_cast<double>(result.allocation[i])},
                 {"dJ", result.objective - result.initial_objective}});
          }
        }
      }
    }
  }

  const auto pns = static_cast<std::uint64_t>(elapsed_ns(t1, t2));
  const auto ons = static_cast<std::uint64_t>(elapsed_ns(t2, t3));
  predict_ns_.add(static_cast<double>(pns));
  optimize_ns_.add(static_cast<double>(ons));
  migrations_.add(static_cast<double>(migrations));

  if (obs != nullptr) {
    auto& m = obs->metrics();
    m.histogram("epoch.predict_ns").record(pns);
    m.histogram("epoch.optimize_ns").record(ons);
  }
  // Phases laid out sequentially from the epoch boundary: simulated
  // position, host-measured durations (the Fig. 7 overhead, visible per
  // pass instead of as an end-of-run mean).
  trace_sense();
  if (tracer != nullptr) {
    const std::uint64_t base = obs->now_ns();
    tracer->span("predict", base + sense_ns, pns, passes_);
    tracer->span("balance", base + sense_ns + pns, ons, passes_,
                 {{"iterations", static_cast<double>(result.iterations)},
                  {"accepted_worse",
                   static_cast<double>(result.accepted_worse)},
                  {"resyncs", static_cast<double>(result.resyncs)},
                  {"migrations", static_cast<double>(migrations)}});
  }
}

}  // namespace sb::core
