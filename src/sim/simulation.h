// Simulation façade: wires a Platform, the performance/power models, the
// kernel and a workload into one runnable experiment. This is the primary
// public entry point of the library (see examples/quickstart.cpp).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "arch/platform.h"
#include "common/csv.h"
#include "common/rng.h"
#include "obs/sink.h"
#include "os/kernel.h"
#include "perf/perf_model.h"
#include "power/power_model.h"
#include "power/thermal.h"
#include "sim/metrics.h"
#include "sim/ts_sampler.h"
#include "workload/benchmarks.h"
#include "workload/mixes.h"
#include "workload/sched_replay.h"

namespace sb::sim {

struct SimulationConfig {
  os::KernelConfig kernel;
  /// Simulated run window; with run_to_completion the window is a cap.
  TimeNs duration = milliseconds(600);
  bool run_to_completion = false;
  std::uint64_t seed = 1234;
  std::string label;

  /// Enables the per-core RC thermal model (stepped every 5 ms of simulated
  /// time); results gain max/final core temperatures.
  bool thermal_enabled = false;
  power::ThermalModel::Config thermal;
  /// Non-empty: writes a long-format per-core time series
  /// (time_ms, core, power_w, temp_c, nr_running, freq_mhz) as CSV, one
  /// row per core every 5 ms of simulated time.
  std::string trace_path;

  /// Observability: metrics registry and/or epoch tracer (see src/obs/).
  /// Off by default — a disabled run is bit-identical to a pre-obs build.
  /// The run's trace, audit and timeseries land in SimulationResult::obs;
  /// callers write the exports (obs::write_chrome_trace_file,
  /// write_audit_file, write_timeseries_file).
  obs::ObsConfig obs;
};

class Simulation {
 public:
  /// The platform is copied; models and kernel are built over the copy.
  Simulation(const arch::Platform& platform, SimulationConfig cfg);
  explicit Simulation(const arch::Platform& platform)
      : Simulation(platform, SimulationConfig()) {}

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  // --- Workload population (before run()) ---
  /// Spawns `threads` workers of a library benchmark (PARSEC/x264/IMB name).
  void add_benchmark(const std::string& name, int threads);
  /// Spawns a Table 3 mix with `threads_per_member` workers per member.
  void add_mix(int mix_id, int threads_per_member);
  void add_thread(workload::ThreadBehavior behavior);

  /// Defers a benchmark's fork until simulated time `at` — the paper's §3
  /// dynamic thread model ("threads can enter and leave the system at any
  /// time"). Arrivals are applied during run().
  void add_benchmark_at(TimeNs at, const std::string& name, int threads);

  /// Populates the run from a compiled scheduler-trace replay (see
  /// workload/sched_replay.h): tasks spawning at t=0 fork immediately, the
  /// rest become deferred arrivals at their traced spawn times.
  void add_replay(const workload::ReplaySchedule& schedule);

  /// Installs the balancing policy (must be called before run()).
  void set_balancer(std::unique_ptr<os::LoadBalancer> balancer);

  /// Runs to the configured duration (or until every task exits, if
  /// run_to_completion). Returns the final metrics; callable once.
  SimulationResult run();

  // --- Service mode (incremental driving; used by the fleet layer) ---
  // begin_service() performs run()'s setup without the batch loop, after
  // which advance_service() steps the kernel in arbitrary increments and
  // jobs can be admitted at the current simulated time between steps.
  // finish_service() ends the run and returns the final metrics. Mutually
  // exclusive with run().

  /// Enters service mode; throws std::logic_error if already run.
  void begin_service();

  /// Advances simulated time by `dt`, honoring deferred arrivals and the
  /// sampling cadence exactly like run()'s stepping loop.
  void advance_service(TimeNs dt);

  /// Forks `threads` workers of a library benchmark at the current
  /// simulated time, overriding each worker's instruction budget when
  /// `per_thread_instructions` > 0 (so service jobs terminate). Returns
  /// the forked thread ids for completion tracking.
  std::vector<ThreadId> admit_benchmark(const std::string& name, int threads,
                                        std::uint64_t per_thread_instructions);

  /// Leaves service mode and returns the final metrics.
  SimulationResult finish_service();

  /// Metrics of the run so far (valid after run(), or mid-run for tools
  /// driving the kernel directly).
  SimulationResult snapshot() const;

  os::Kernel& kernel() { return *kernel_; }
  const arch::Platform& platform() const { return platform_; }
  const perf::PerfModel& perf_model() const { return *perf_; }
  const power::PowerModel& power_model() const { return *power_; }
  const SimulationConfig& config() const { return cfg_; }

  /// Thermal state (only when thermal_enabled); valid after/while running.
  const power::ThermalModel* thermal() const { return thermal_.get(); }

  /// Observability sink (null unless cfg.obs enabled something).
  obs::Sink* obs() { return obs_.get(); }

 private:
  void prepare_run();
  /// Runs the kernel to `until` in chunks cut at the sample interval (when
  /// sampling; else at `max_step`, 0 = no cap), timeseries windows and
  /// arrivals, applying arrivals and samplers after each chunk. With
  /// `stop_when_done`, stops early once every task has exited and no
  /// arrival is pending.
  void step_until(TimeNs until, TimeNs max_step, bool stop_when_done);
  void sample_tick(TimeNs window);
  void ts_tick();
  void apply_arrivals();

  struct Arrival {
    TimeNs at;
    std::string benchmark;
    int threads;
    /// Replay arrivals carry fully compiled behaviors instead of a
    /// benchmark name (benchmark is empty then).
    std::vector<workload::ThreadBehavior> behaviors;
  };
  std::vector<Arrival> arrivals_;

  arch::Platform platform_;
  SimulationConfig cfg_;
  std::unique_ptr<perf::PerfModel> perf_;
  std::unique_ptr<power::PowerModel> power_;
  std::unique_ptr<os::Kernel> kernel_;
  std::unique_ptr<power::ThermalModel> thermal_;
  std::unique_ptr<obs::Sink> obs_;
  std::unique_ptr<CsvWriter> trace_;
  /// Telemetry-plane sampler (null unless obs.timeseries is on); ticks at
  /// window boundaries of simulated time, so exports are a deterministic
  /// function of the run.
  std::unique_ptr<TimeseriesSampler> ts_sampler_;
  TimeNs ts_next_ = 0;
  TimeNs ts_last_ = 0;
  std::vector<double> prev_core_joules_;
  double max_temp_seen_c_ = 0;
  Rng spawn_rng_;
  bool ran_ = false;
  bool service_ = false;
  bool sampled_ = false;
};

}  // namespace sb::sim
