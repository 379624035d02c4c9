// SmartBalance sensing subsystem (paper §4.1).
//
// Converts the kernel's per-thread epoch accumulators (drained at the epoch
// boundary) into ThreadObservations, applying the measurement imperfections
// a real platform has: multiplicative gaussian noise on each hardware
// counter (sampling skew, non-atomic reads) and on per-thread energy (the
// power-sensor path). Threads that slept through an epoch produce no fresh
// measurement; the subsystem retains each thread's last good observation so
// the balancer still has a (stale) characterization — exactly the situation
// the paper's closed loop must tolerate.
//
// Defending the path is one switch, `defended`, which the policy resolves
// from SmartBalanceConfig::defenses. The defense layer's thresholds (the
// plausibility envelope in features.cc; runtime floor, outlier window,
// stale window and health decay in sensing.cc) are constants.
#pragma once

#include <optional>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "arch/platform.h"
#include "common/rng.h"
#include "core/features.h"
#include "os/kernel.h"

namespace sb::obs {
class Sink;
}  // namespace sb::obs

namespace sb::core {

/// Counters for the defense layer, aggregated across all epochs, plus the
/// healthy-thread fraction of the most recent epoch.
struct SensingHealthStats {
  std::uint64_t implausible_rejected = 0;
  std::uint64_t outliers_rejected = 0;
  std::uint64_t stale_served = 0;
  std::uint64_t neutral_served = 0;
  double healthy_fraction = 1.0;
};

class SensingSubsystem {
 public:
  struct Config {
    double counter_noise_sigma = 0.005;  // 0.5% per-counter
    double energy_noise_sigma = 0.010;   // 1% on per-thread energy
    /// EWMA weight of *history* when blending successive measurements of a
    /// thread on the same core type: 0 = paper-faithful point sampling of
    /// the last epoch, higher = characterize the thread's average behaviour
    /// across its program phases. Damps allocation thrash for workloads
    /// whose phases alternate faster than they migrate usefully (x264's
    /// per-frame ME/encode cycle). History resets on core-type change.
    double smoothing = 0.6;
  };

  /// `defended` turns on the defense layer: every fresh measurement is
  /// screened against a physical-plausibility envelope and against the
  /// median of the thread's recent accepted measurements, per-thread sensor
  /// confidence is tracked, and long-stale threads are escalated to the
  /// predictor's neutral prior. Undefended, the subsystem is bit-identical
  /// to the pipeline without the layer (golden-figure contract).
  SensingSubsystem(const arch::Platform& platform, Config cfg, Rng rng,
                   bool defended = false);
  SensingSubsystem(const arch::Platform& platform, Rng rng)
      : SensingSubsystem(platform, Config(), rng) {}

  /// Processes one epoch's samples into observations. Every alive thread
  /// yields exactly one observation: fresh if it ran long enough (and, with
  /// defenses on, passed the plausibility and outlier screens), the cached
  /// previous one otherwise (with defenses on, the neutral prior instead
  /// once the thread has gone stale for too many epochs; see sensing.cc).
  std::vector<ThreadObservation> observe(
      const std::vector<os::EpochSample>& samples);

  /// Drops cached observations for threads no longer present.
  void garbage_collect(const std::vector<os::EpochSample>& samples);

  bool defended() const { return defended_; }
  const SensingHealthStats& health() const { return health_; }

  /// Observability hook (null = off); counts defense decisions under
  /// `sense.*` and tracks the healthy fraction as a gauge.
  void set_obs(obs::Sink* obs) { obs_ = obs; }

 private:
  struct ThreadHealth {
    double confidence = 1.0;
    int stale_epochs = 0;
    /// Ring of the last accepted IPS values for the outlier median.
    std::vector<double> ips_history;
    std::size_t ips_next = 0;
  };

  ThreadObservation reduce(const os::EpochSample& s);
  double noisy(double v, double sigma);
  void bump(std::string_view metric);
  /// Defense screen on a fresh measurement; returns false when the sample
  /// must be rejected (and bumps the corresponding stats counter).
  bool accept_fresh(const ThreadObservation& o, const os::EpochSample& s);
  void note_accepted(ThreadId tid, double ips);
  void note_rejected(ThreadId tid);

  const arch::Platform& platform_;
  Config cfg_;
  bool defended_;
  Rng rng_;
  std::unordered_map<ThreadId, ThreadObservation> last_good_;
  std::unordered_map<ThreadId, ThreadHealth> thread_health_;
  SensingHealthStats health_{};
  obs::Sink* obs_ = nullptr;
};

}  // namespace sb::core
