// Google-benchmark micro benchmarks for the hot paths: the fixed-point
// primitives the in-kernel optimizer relies on, one SA iteration, the
// predictor, characterization-matrix construction, CFS runqueue operations
// and a full simulated epoch.
//
// After the google-benchmark suite runs, main() measures the SA optimizer
// on the Fig. 7 scalability extremes and writes BENCH_sa.json — the
// machine-readable perf-trajectory point this repo commits per PR (see
// EXPERIMENTS.md "Hot-path performance") — then measures the observability
// hooks' epoch-pass overhead and writes BENCH_obs.json, and the kernel's
// per-context-switch cost and writes BENCH_kernel.json. Pass
// --benchmark_filter=NONE to skip the google-benchmark suite and only emit
// the JSON files.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "alloc_hook.h"
#include "arch/platform.h"
#include "bench_json.h"
#include "common/fixed_math.h"
#include "common/rng.h"
#include "core/char_matrix.h"
#include "core/objective.h"
#include "core/sa_optimizer.h"
#include "core/smart_balance.h"
#include "core/trainer.h"
#include "obs/sink.h"
#include "os/cfs_runqueue.h"
#include "os/kernel.h"
#include "os/vanilla_balancer.h"
#include "perf/perf_model.h"
#include "power/power_model.h"
#include "sim/experiment.h"
#include "sim/simulation.h"
#include "sim/ts_sampler.h"
#include "workload/benchmarks.h"

namespace {

using namespace sb;

void BM_FixedExpNeg(benchmark::State& state) {
  Rng rng(1);
  Fixed x = Fixed::from_double(-rng.uniform(0.0, 10.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixed_exp_neg(x));
    x = Fixed::from_raw((x.raw() * 31) % (10 << 16) - (5 << 16));
  }
}
BENCHMARK(BM_FixedExpNeg);

void BM_LibmExp(benchmark::State& state) {
  Rng rng(1);
  double x = -rng.uniform(0.0, 10.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(std::exp(x));
    x = x < -10 ? -0.1 : x - 0.37;
  }
}
BENCHMARK(BM_LibmExp);

void BM_FixedSqrt(benchmark::State& state) {
  Fixed x = Fixed::from_double(3.7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(fixed_sqrt(x));
    x += Fixed::from_double(0.01);
    if (x > Fixed::from_int(100)) x = Fixed::from_double(0.5);
  }
}
BENCHMARK(BM_FixedSqrt);

void BM_RngRandi(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) benchmark::DoNotOptimize(rng.randi(0, 1000));
}
BENCHMARK(BM_RngRandi);

void BM_SaOptimize(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = 2 * n;
  Rng rng(3);
  Matrix s(m, n), p(m, n);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      s.at(i, j) = rng.uniform(0.1, 4.0);
      p.at(i, j) = rng.uniform(0.05, 3.0);
    }
  }
  std::vector<CoreId> init(m, 0);
  core::EnergyEfficiencyObjective obj;
  core::SaConfig cfg;
  cfg.max_iterations = 1000;
  core::SaOptimizer opt(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(opt.optimize(s, p, obj, init));
  }
  state.counters["ns/iter"] = benchmark::Counter(
      1000.0 * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_SaOptimize)->Arg(4)->Arg(16)->Arg(64);

void BM_PredictIpc(benchmark::State& state) {
  const auto platform = arch::Platform::quad_heterogeneous();
  const perf::PerfModel perf(platform);
  const power::PowerModel power(platform, perf);
  const core::PredictorTrainer trainer(perf, power);
  const auto model =
      trainer.train(core::PredictorTrainer::default_training_profiles());
  Rng rng(2);
  const auto obs = trainer.synthesize_observation(
      core::PredictorTrainer::default_training_profiles()[3], 0, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.predict_ipc(obs, 2, 2000, 1000));
  }
}
BENCHMARK(BM_PredictIpc);

void BM_BuildCharacterization(benchmark::State& state) {
  // The predict phase at manycore_fig7's shape: 256 measured threads on
  // scaled:32 (128 cores, four types), one model trained outside the loop.
  const auto platform = arch::Platform::scaled_heterogeneous(32);
  const perf::PerfModel perf(platform);
  const power::PowerModel power(platform, perf);
  const auto model = sim::train_default_model(perf, power, false);
  const core::PredictorTrainer trainer(perf, power);
  const auto profiles = core::PredictorTrainer::default_training_profiles();
  Rng rng(5);
  std::vector<core::ThreadObservation> observations;
  for (int i = 0; i < 256; ++i) {
    const auto c = static_cast<CoreId>(i % platform.num_cores());
    auto o = trainer.synthesize_observation(
        profiles[static_cast<std::size_t>(i) % profiles.size()],
        platform.type_of(c), rng);
    o.tid = i;
    o.core = c;
    observations.push_back(o);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::build_characterization(observations, model, platform));
  }
}
BENCHMARK(BM_BuildCharacterization)->Unit(benchmark::kMicrosecond);

void BM_IntervalModelEvaluate(benchmark::State& state) {
  const perf::IntervalModel m;
  const auto profile =
      workload::BenchmarkLibrary::get("canneal").phases[0].profile;
  const auto core = arch::big_core();
  for (auto _ : state) {
    benchmark::DoNotOptimize(m.evaluate(profile, core, 120.0, 1.3));
  }
}
BENCHMARK(BM_IntervalModelEvaluate);

void BM_CfsEnqueuePop(benchmark::State& state) {
  os::CfsRunqueue rq;
  double v = 0;
  for (int i = 0; i < 64; ++i) rq.enqueue(i, v += 1.0, 1024);
  ThreadId last = 64;
  for (auto _ : state) {
    const ThreadId t = rq.pop_leftmost();
    rq.enqueue(t, v += 1.0, 1024);
    benchmark::DoNotOptimize(last = t);
  }
}
BENCHMARK(BM_CfsEnqueuePop);

void BM_TrainPredictor(benchmark::State& state) {
  const auto platform = arch::Platform::quad_heterogeneous();
  const perf::PerfModel perf(platform);
  const power::PowerModel power(platform, perf);
  core::PredictorTrainer::Config cfg;
  cfg.replicas = 4;
  const core::PredictorTrainer trainer(perf, power, cfg);
  const auto profiles = core::PredictorTrainer::default_training_profiles();
  for (auto _ : state) {
    benchmark::DoNotOptimize(trainer.train(profiles));
  }
}
BENCHMARK(BM_TrainPredictor)->Unit(benchmark::kMillisecond);

void BM_SimulatedEpoch(benchmark::State& state) {
  // Host cost of simulating one 60 ms epoch of an 8-thread quad-core HMP
  // under the vanilla balancer (the simulator's bulk throughput metric).
  for (auto _ : state) {
    state.PauseTiming();
    const auto platform = arch::Platform::quad_heterogeneous();
    sim::SimulationConfig cfg;
    cfg.duration = milliseconds(60);
    sim::Simulation s(platform, cfg);
    s.set_balancer(std::make_unique<os::VanillaBalancer>());
    s.add_benchmark("bodytrack", 8);
    state.ResumeTiming();
    benchmark::DoNotOptimize(s.run());
  }
}
BENCHMARK(BM_SimulatedEpoch)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// BENCH_sa.json: SA optimizer throughput + allocation counts on the Fig. 7
// scalability extremes. The workload (matrix contents, demand vector,
// initial allocation, seed) is fixed so successive trajectory points are
// comparable run-to-run and against the committed baseline.
// ---------------------------------------------------------------------------

/// Energy-efficiency formula expressed as a *custom* objective (not one of
/// the built-in classes): exercises the generic virtual-dispatch annealing
/// kernel so the JSON also tracks the escape-hatch cost relative to the
/// devirtualized built-in path.
class VirtualEfficiencyObjective : public core::BalanceObjective {
 public:
  double core_term(const core::CoreSums& s, CoreId /*core*/) const override {
    if (s.nthreads == 0 || s.watts <= 0) return 0.0;
    return s.gips / s.watts;
  }
  std::string name() const override { return "virtual_ips_per_watt"; }
};

struct SaPoint {
  int num_cores = 0;
  int num_threads = 0;
  int sa_iterations = 0;
  double ns_per_call = 0;
  double ns_per_iteration = 0;
  double allocs_per_call = 0;
  double objective = 0;
};

// Each point's time is the median of kSaRounds samples, taken round-robin
// across the points so that a slow phase of the machine hits all of them
// alike. A sample runs enough calls for kSaSampleIterations iterations:
// 2 calls at 128 × 256, 248 on the quad, a few milliseconds each. A single
// 0.3 ms sample of the quad read anywhere from 20.7 to 61.0 ns/iteration
// over 12 runs.
constexpr int kSaRounds = 15;
constexpr int kSaSampleIterations = 120000;

/// A BENCH_sa point under measurement: its fixed problem, the optimizer
/// whose scratch arena every call reuses, and one reading per sample.
class SaPointRun {
 public:
  SaPointRun(int n, int m, const core::BalanceObjective& obj)
      : obj_(obj),
        s_(static_cast<std::size_t>(m), static_cast<std::size_t>(n)),
        p_(static_cast<std::size_t>(m), static_cast<std::size_t>(n)),
        demand_(static_cast<std::size_t>(m)),
        initial_(static_cast<std::size_t>(m)),
        opt_(core::SaConfig{.seed = 42}) {
    // Workload spec shared with the recorded baseline: Rng(3) matrices,
    // alternating CPU-bound / duty-cycled demand, threads striped over
    // cores, seed 42.
    Rng rng(3);
    for (std::size_t i = 0; i < s_.rows(); ++i) {
      for (std::size_t j = 0; j < s_.cols(); ++j) {
        s_.at(i, j) = rng.uniform(0.1, 4.0);
        p_.at(i, j) = rng.uniform(0.05, 3.0);
      }
    }
    for (int i = 0; i < m; ++i) {
      demand_[static_cast<std::size_t>(i)] =
          (i % 2 == 0) ? -1.0 : rng.uniform(0.05, 1.0);
      initial_[static_cast<std::size_t>(i)] = static_cast<CoreId>(i % n);
    }
    point_.num_cores = n;
    point_.num_threads = m;
    point_.sa_iterations = core::sa_auto_iterations(n, m);
    calls_ = (kSaSampleIterations + point_.sa_iterations - 1) /
             point_.sa_iterations;
    // Warmup grows the scratch arena to the problem size; the timed samples
    // then show the steady-state (zero-allocation) cost.
    point_.objective = call();
    ns_per_call_.reserve(kSaRounds);
  }

  void sample() {
    const std::uint64_t a0 = bench::alloc_count();
    const auto t0 = std::chrono::steady_clock::now();
    double sink = 0;
    for (int c = 0; c < calls_; ++c) sink += call();
    const auto t1 = std::chrono::steady_clock::now();
    allocs_ += bench::alloc_count() - a0;
    benchmark::DoNotOptimize(sink);
    ns_per_call_.push_back(
        static_cast<double>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                .count()) /
        calls_);
  }

  SaPoint result() {
    const auto mid = ns_per_call_.begin() +
                     static_cast<std::ptrdiff_t>(ns_per_call_.size() / 2);
    std::nth_element(ns_per_call_.begin(), mid, ns_per_call_.end());
    point_.ns_per_call = *mid;
    point_.ns_per_iteration = point_.ns_per_call / point_.sa_iterations;
    point_.allocs_per_call =
        static_cast<double>(allocs_) /
        static_cast<double>(calls_ * static_cast<int>(ns_per_call_.size()));
    return point_;
  }

 private:
  double call() {
    return opt_.optimize(s_, p_, obj_, initial_, nullptr, &demand_).objective;
  }

  const core::BalanceObjective& obj_;
  Matrix s_, p_;
  std::vector<double> demand_;
  std::vector<CoreId> initial_;
  core::SaOptimizer opt_;
  SaPoint point_;
  int calls_ = 1;
  std::uint64_t allocs_ = 0;
  std::vector<double> ns_per_call_;
};

void emit_sa_point(bench::Json& j, const std::string& key, const SaPoint& pt,
                   double baseline_ns_per_iteration,
                   double baseline_allocs_per_call) {
  j.begin_object(key)
      .field("num_cores", pt.num_cores)
      .field("num_threads", pt.num_threads)
      .field("sa_iterations", pt.sa_iterations)
      .field("ns_per_call", pt.ns_per_call)
      .field("ns_per_iteration", pt.ns_per_iteration)
      .field("iterations_per_sec", 1e9 / pt.ns_per_iteration)
      .field("allocs_per_call", pt.allocs_per_call)
      .field("objective", pt.objective);
  if (baseline_ns_per_iteration > 0) {
    j.field("baseline_ns_per_iteration", baseline_ns_per_iteration)
        .field("baseline_allocs_per_call", baseline_allocs_per_call)
        .field("speedup_vs_baseline",
               baseline_ns_per_iteration / pt.ns_per_iteration);
  }
  j.end_object();
}

void emit_bench_sa_json() {
  // Pre-PR numbers measured on the same machine at -O2 -DNDEBUG (commit
  // b792c4d, 30 reps, identical workload); the acceptance bar for this
  // harness is speedup_vs_baseline >= 2.0 at the fig7_large point.
  constexpr double kBaselineLargeNsPerIter = 125.2;
  constexpr double kBaselineQuadNsPerIter = 92.6;
  constexpr double kBaselineAllocsPerCall = 7.0;

  core::EnergyEfficiencyObjective ee;
  VirtualEfficiencyObjective custom;
  SaPointRun runs[] = {{128, 256, ee}, {4, 8, ee}, {128, 256, custom}};
  for (int r = 0; r < kSaRounds; ++r) {
    for (SaPointRun& run : runs) run.sample();
  }
  const SaPoint large = runs[0].result();
  const SaPoint quad = runs[1].result();
  const SaPoint large_virtual = runs[2].result();

  bench::Json j;
  j.begin_object()
      .field("bench", "BENCH_sa")
      .field("description",
             "SA optimizer throughput on the Fig. 7 scalability extremes; "
             "fixed synthetic workload, EnergyEfficiencyObjective, seed 42, "
             "auto iteration budget, 1 warmup, then the median of 15 "
             "interleaved samples of >= 120000 iterations each")
      .field("build", "-O2 -DNDEBUG")
      .field("baseline_commit", "b792c4d")
      .field("baseline_note",
             "baselines measured pre-optimization on the same machine with "
             "the identical workload and rep count");
  emit_sa_point(j, "fig7_large", large, kBaselineLargeNsPerIter,
                kBaselineAllocsPerCall);
  emit_sa_point(j, "quad", quad, kBaselineQuadNsPerIter,
                kBaselineAllocsPerCall);
  emit_sa_point(j, "fig7_large_custom_objective", large_virtual, 0, 0);
  j.end_object();
  j.write("BENCH_sa.json");
}

// ---------------------------------------------------------------------------
// BENCH_obs.json: observability-hook overhead on the epoch hot path. Drives
// SmartBalancePolicy::on_balance directly (sense → predict → balance) on a
// fixed quad-HMP workload, timing only the pass itself — the kernel advances
// one epoch between passes outside the timed region so each pass sees fresh
// sensing data. Four configurations: null sink (the shipping default —
// hooks reduce to a branch on nullptr), metrics+tracing enabled, the
// prediction-audit flight recorder alone (join + record on every pass),
// and the continuous-telemetry plane (metrics + timeseries recorder with a
// sampler tick per pass — what `--timeseries` costs an epoch).
//
// Absolute pass times are not comparable across machines (or even across
// runs on a shared/throttled runner: observed spread is >20% on the minimum
// of 96 CPU-time-clocked passes), so the gated metric is dimensionless:
//
//   pass_cost_index = min_pass_ns / min_yardstick_ns
//
// where the yardstick is a fixed pure-integer loop (2e5 splitmix64 steps)
// measured interleaved with the passes on the same thread. Machine speed
// and frequency scaling cancel in the ratio; what remains is the cost of
// the code path itself. The tracer-off section carries a 1% "max_regress"
// budget on that index, honored by tools/check_bench.py; allocations per
// pass are gated exactly. Raw minima are exported for reference.
// ---------------------------------------------------------------------------

struct ObsPoint {
  double min_pass_ns = std::numeric_limits<double>::infinity();
  double allocs_per_pass = 0;
};

double thread_cpu_ns() {
#if defined(__linux__)
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e9 +
         static_cast<double>(ts.tv_nsec);
#else
  return static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#endif
}

// One round: fresh kernel + trained policy, 4 warmup passes, then kReps
// timed passes; the per-round minimum folds into `point`. With
// `tick_sampler`, a telemetry-plane sampler tick (one frame of the
// continuous time series) runs inside the timed region after each pass —
// pricing exactly what `--timeseries` adds to an epoch.
void measure_epoch_pass_round(obs::Sink* sink, ObsPoint& point,
                              bool tick_sampler = false) {
  constexpr int kWarmup = 4;
  constexpr int kReps = 32;
  const auto platform = arch::Platform::quad_heterogeneous();
  perf::PerfModel perf(platform);
  power::PowerModel power(platform, perf);
  core::PredictorTrainer trainer(perf, power);
  core::SmartBalancePolicy policy(
      platform,
      trainer.train(core::PredictorTrainer::default_training_profiles()));
  os::Kernel k(platform, perf, power);
  k.set_obs(sink);
  Rng rng(7);
  for (auto& tb : workload::BenchmarkLibrary::get("canneal").spawn(2, rng)) {
    k.fork(std::move(tb));
  }
  for (auto& tb : workload::BenchmarkLibrary::get("swaptions").spawn(2, rng)) {
    k.fork(std::move(tb));
  }

  std::unique_ptr<sim::TimeseriesSampler> sampler;
  if (tick_sampler) {
    sampler = std::make_unique<sim::TimeseriesSampler>(platform, *sink);
  }

  const TimeNs epoch = policy.interval();
  for (int i = 0; i < kWarmup; ++i) {
    k.run_for(epoch);
    policy.on_balance(k, k.now());
    if (sampler) sampler->tick(k, k.now(), epoch);
  }
  std::uint64_t total_allocs = 0;
  for (int i = 0; i < kReps; ++i) {
    k.run_for(epoch);
    const std::uint64_t a0 = bench::alloc_count();
    const double t0 = thread_cpu_ns();
    policy.on_balance(k, k.now());
    if (sampler) sampler->tick(k, k.now(), epoch);
    const double t1 = thread_cpu_ns();
    total_allocs += bench::alloc_count() - a0;
    point.min_pass_ns = std::min(point.min_pass_ns, t1 - t0);
  }
  point.allocs_per_pass = static_cast<double>(total_allocs) / kReps;
}

// Fixed pure-integer reference loop; its minimum CPU time calibrates out
// the machine's current speed.
double yardstick_round() {
  constexpr int kYardReps = 8;
  constexpr int kSteps = 200'000;
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < kYardReps; ++rep) {
    std::uint64_t z = 0;
    std::uint64_t acc = 0;
    const double t0 = thread_cpu_ns();
    for (int i = 0; i < kSteps; ++i) {
      z += 0x9e3779b97f4a7c15ULL;
      std::uint64_t x = z;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      acc ^= x ^ (x >> 31);
    }
    const double t1 = thread_cpu_ns();
    benchmark::DoNotOptimize(acc);
    best = std::min(best, t1 - t0);
  }
  return best;
}

void emit_bench_obs_json() {
  obs::ObsConfig ocfg;
  ocfg.metrics = true;
  ocfg.trace = true;
  obs::Sink sink(ocfg);
  // Audit recorder alone (no tracer/metrics), isolating the flight
  // recorder's join+record cost on the pass.
  obs::ObsConfig acfg;
  acfg.audit = true;
  obs::Sink audit_sink(acfg);
  // Telemetry plane: metrics + timeseries recorder, a sampler tick (one
  // full frame of the continuous time series) added to every timed pass.
  obs::ObsConfig tcfg;
  tcfg.metrics = true;
  tcfg.timeseries.enabled = true;
  obs::Sink tsdb_sink(tcfg);

  // Interleave yardstick / off / on within each round so all three see the
  // same spread of environmental conditions; the index divides the global
  // minimum pass time by the global minimum yardstick time. Both minima
  // settle on the machine's best frequency state, so the ratio is the
  // tightest-variance statistic available here (per-round ratios were
  // tried and amplify anti-correlated noise instead of cancelling it).
  constexpr int kRounds = 6;
  ObsPoint off;
  ObsPoint on;
  ObsPoint audit;
  ObsPoint tsdb;
  double yard_ns = std::numeric_limits<double>::infinity();
  for (int round = 0; round < kRounds; ++round) {
    yard_ns = std::min(yard_ns, yardstick_round());
    measure_epoch_pass_round(nullptr, off);
    measure_epoch_pass_round(&sink, on);
    measure_epoch_pass_round(&audit_sink, audit);
    measure_epoch_pass_round(&tsdb_sink, tsdb, /*tick_sampler=*/true);
  }
  const double off_index = off.min_pass_ns / yard_ns;
  const double on_index = on.min_pass_ns / yard_ns;
  const double audit_index = audit.min_pass_ns / yard_ns;
  const double tsdb_index = tsdb.min_pass_ns / yard_ns;

  bench::Json j;
  j.begin_object()
      .field("bench", "BENCH_obs")
      .field("description",
             "SmartBalance epoch pass (on_balance: sense+predict+balance) "
             "with observability hooks disabled (null sink, the shipping "
             "default) vs metrics+tracing enabled vs the prediction-audit "
             "recorder alone vs the continuous-telemetry plane (metrics + "
             "timeseries with one sampler tick per pass); quad HMP, "
             "canneal:2+swaptions:2; "
             "pass_cost_index = min pass CPU time / min yardstick CPU time "
             "over 6 interleaved rounds x 32 passes")
      .field("build", "-O2 -DNDEBUG")
      .field("baseline_note",
             "tracer-off budget is 1% on pass_cost_index over the committed "
             "baseline (max_regress in the section); the yardstick ratio "
             "cancels machine speed. allocs per pass must not increase.")
      .field("yardstick_ns", yard_ns);
  j.begin_object("epoch_pass_tracer_off")
      .field("pass_cost_index", off_index)
      .field("min_pass_ns", off.min_pass_ns)
      .field("allocs_per_pass", off.allocs_per_pass)
      .field("max_regress", 0.01)
      .end_object();
  j.begin_object("epoch_pass_tracer_on")
      .field("pass_cost_index", on_index)
      .field("min_pass_ns", on.min_pass_ns)
      .field("allocs_per_pass", on.allocs_per_pass)
      .field("overhead_vs_off_pct", 100.0 * (on_index / off_index - 1.0))
      .end_object();
  j.begin_object("epoch_pass_audit_on")
      .field("pass_cost_index", audit_index)
      .field("min_pass_ns", audit.min_pass_ns)
      .field("allocs_per_pass", audit.allocs_per_pass)
      .field("overhead_vs_off_pct", 100.0 * (audit_index / off_index - 1.0))
      .end_object();
  j.begin_object("epoch_pass_tsdb_on")
      .field("pass_cost_index", tsdb_index)
      .field("min_pass_ns", tsdb.min_pass_ns)
      .field("allocs_per_pass", tsdb.allocs_per_pass)
      .field("overhead_vs_off_pct", 100.0 * (tsdb_index / off_index - 1.0))
      .end_object();
  j.end_object();
  j.write("BENCH_obs.json");
}

// ---------------------------------------------------------------------------
// BENCH_kernel.json: the kernel's per-context-switch cost. A fresh os::Kernel
// under the vanilla balancer runs a fixed simulated window, and only
// run_until() is timed, in thread CPU time. Every dispatch evaluates the
// interval model and every segment end synthesizes counters, so the run
// time follows the per-switch path. Two shapes: quad HMP with canneal:2 +
// swaptions:2 + IMB_HTHI:2, and scaled:32 (128 cores) with 256 threads
// round-robin over fig7's mix. As in BENCH_obs, the gated pass_cost_index
// divides the minimum run time by the minimum yardstick time, both taken
// over the same interleaved rounds.
// ---------------------------------------------------------------------------

struct KernelShape {
  const char* key;
  arch::Platform platform;
  std::vector<std::pair<const char*, int>> threads;  // (benchmark, count)
  TimeNs window;
};

struct KernelPoint {
  double min_run_ns = std::numeric_limits<double>::infinity();
  std::uint64_t context_switches = 0;
};

void measure_kernel_round(const KernelShape& shape, KernelPoint& point) {
  const perf::PerfModel perf(shape.platform);
  const power::PowerModel power(shape.platform, perf);
  os::Kernel k(shape.platform, perf, power);
  k.set_balancer(std::make_unique<os::VanillaBalancer>());
  Rng rng(7);
  for (const auto& [name, n] : shape.threads) {
    for (auto& tb : workload::BenchmarkLibrary::get(name).spawn(n, rng)) {
      k.fork(std::move(tb));
    }
  }
  const double t0 = thread_cpu_ns();
  k.run_until(shape.window);
  const double t1 = thread_cpu_ns();
  point.min_run_ns = std::min(point.min_run_ns, t1 - t0);
  point.context_switches = k.context_switches();
}

void emit_bench_kernel_json() {
  std::vector<std::pair<const char*, int>> fig7_mix;
  const char* fig7_names[] = {"swaptions", "canneal", "bodytrack",
                              "x264_H_crew"};
  for (int i = 0; i < 256; ++i) fig7_mix.emplace_back(fig7_names[i % 4], 1);
  const KernelShape shapes[] = {
      {"quad",
       arch::Platform::quad_heterogeneous(),
       {{"canneal", 2}, {"swaptions", 2}, {"IMB_HTHI", 2}},
       milliseconds(60'000)},
      {"scaled32", arch::Platform::scaled_heterogeneous(32), fig7_mix,
       milliseconds(3'000)},
  };

  constexpr int kRounds = 6;
  KernelPoint points[std::size(shapes)];
  double yard_ns = std::numeric_limits<double>::infinity();
  for (int round = 0; round < kRounds; ++round) {
    yard_ns = std::min(yard_ns, yardstick_round());
    for (std::size_t i = 0; i < std::size(shapes); ++i) {
      measure_kernel_round(shapes[i], points[i]);
    }
  }

  bench::Json j;
  j.begin_object()
      .field("bench", "BENCH_kernel")
      .field("description",
             "os::Kernel run_until() over a fixed simulated window under the "
             "vanilla balancer: quad HMP with canneal:2+swaptions:2+"
             "IMB_HTHI:2, and scaled:32 with 256 threads round-robin over "
             "swaptions/canneal/bodytrack/x264_H_crew; pass_cost_index = min "
             "run CPU time / min yardstick CPU time over 6 interleaved rounds")
      .field("build", "-O2 -DNDEBUG")
      .field("baseline_note",
             "pass_cost_index is gated at check_bench.py's default budget; "
             "ns_per_switch = min run CPU time / context switches")
      .field("yardstick_ns", yard_ns);
  for (std::size_t i = 0; i < std::size(shapes); ++i) {
    const KernelShape& shape = shapes[i];
    const KernelPoint& pt = points[i];
    int threads = 0;
    for (const auto& entry : shape.threads) threads += entry.second;
    j.begin_object(shape.key)
        .field("num_cores", shape.platform.num_cores())
        .field("num_threads", threads)
        .field("sim_ms", static_cast<double>(shape.window) / 1e6)
        .field("context_switches", pt.context_switches)
        .field("min_run_ns", pt.min_run_ns)
        .field("ns_per_switch",
               pt.min_run_ns / static_cast<double>(pt.context_switches))
        .field("pass_cost_index", pt.min_run_ns / yard_ns)
        .end_object();
  }
  j.end_object();
  j.write("BENCH_kernel.json");
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  emit_bench_sa_json();
  emit_bench_obs_json();
  emit_bench_kernel_json();
  return 0;
}
