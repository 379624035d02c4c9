#include "core/sensing.h"

#include <algorithm>
#include <cmath>

#include "obs/sink.h"

namespace sb::core {
namespace {

/// Minimum execution time in an epoch for a fresh measurement to be
/// considered statistically valid.
constexpr TimeNs kMinRuntime = microseconds(300);
/// Outlier screen: once a thread has kMinHistory accepted measurements, a
/// fresh IPS farther than kOutlierFactor× from the median of its last
/// kMedianWindow accepted measurements is rejected.
constexpr std::size_t kMedianWindow = 5;
constexpr double kOutlierFactor = 6.0;
constexpr std::size_t kMinHistory = 3;
/// A thread that executed a full epoch but drew less than this is on a
/// dead/stuck power rail (floor well below any real idle draw).
constexpr double kMinPowerW = 1e-3;
/// After this many consecutive epochs without an accepted measurement the
/// cached characterization is deemed untrustworthy and the thread is
/// served the neutral prior instead (measured=false, instructions=0).
constexpr int kMaxStaleEpochs = 8;
/// Sensor-health tracking: confidence resets to 1 on an accepted
/// measurement and multiplies by kHealthDecay on every rejected or missing
/// one; a thread is "healthy" while confidence >= kHealthyThreshold.
constexpr double kHealthDecay = 0.7;
constexpr double kHealthyThreshold = 0.5;

}  // namespace

SensingSubsystem::SensingSubsystem(const arch::Platform& platform, Config cfg,
                                   Rng rng, bool defended)
    : platform_(platform), cfg_(cfg), defended_(defended), rng_(rng) {}

void SensingSubsystem::bump(std::string_view metric) {
  if (obs_ != nullptr) obs_->metrics().counter(metric).add();
}

double SensingSubsystem::noisy(double v, double sigma) {
  if (sigma <= 0) return v;
  return std::max(0.0, v * (1.0 + sigma * rng_.gaussian()));
}

ThreadObservation SensingSubsystem::reduce(const os::EpochSample& s) {
  ThreadObservation o;
  o.tid = s.tid;
  o.core = s.core;
  o.core_type = s.core >= 0 ? platform_.type_of(s.core) : -1;
  o.runtime = s.runtime;
  o.util = s.util;

  const auto& c = s.counters;
  const double sig = cfg_.counter_noise_sigma;
  // Each counter is read with independent relative error; ratios inherit
  // noise from both numerator and denominator, as on real hardware.
  const double inst_total = noisy(static_cast<double>(c.inst_total), sig);
  const double inst_mem = noisy(static_cast<double>(c.inst_mem), sig);
  const double inst_branch = noisy(static_cast<double>(c.inst_branch), sig);
  const double mispred = noisy(static_cast<double>(c.branch_mispred), sig);
  const double l1i_a = noisy(static_cast<double>(c.l1i_access), sig);
  const double l1i_m = noisy(static_cast<double>(c.l1i_miss), sig);
  const double l1d_a = noisy(static_cast<double>(c.l1d_access), sig);
  const double l1d_m = noisy(static_cast<double>(c.l1d_miss), sig);
  const double itlb_a = noisy(static_cast<double>(c.itlb_access), sig);
  const double itlb_m = noisy(static_cast<double>(c.itlb_miss), sig);
  const double dtlb_a = noisy(static_cast<double>(c.dtlb_access), sig);
  const double dtlb_m = noisy(static_cast<double>(c.dtlb_miss), sig);
  const double active_cyc =
      noisy(static_cast<double>(c.active_cycles()), sig);

  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  o.instructions = c.inst_total;
  o.ipc = ratio(inst_total, active_cyc);
  o.imsh = ratio(inst_mem, inst_total);
  o.ibsh = ratio(inst_branch, inst_total);
  o.mr_branch = ratio(mispred, inst_branch);
  o.mr_l1i = ratio(l1i_m, l1i_a);
  o.mr_l1d = ratio(l1d_m, l1d_a);
  o.mr_itlb = ratio(itlb_m, itlb_a);
  o.mr_dtlb = ratio(dtlb_m, dtlb_a);

  // Measured throughput while executing: IPS = IPC × F (paper §4.2.1).
  // Under DVFS the sample carries the core's actual frequency.
  o.freq_mhz = s.freq_mhz > 0
                   ? s.freq_mhz
                   : (o.core >= 0 ? platform_.params_of(s.core).freq_mhz : 0.0);
  o.ips = o.ipc * o.freq_mhz * 1e6;

  // Per-thread power from the sensed energy over execution time (Eq. 5).
  const double energy = noisy(s.energy_j, cfg_.energy_noise_sigma);
  o.power_w = s.runtime > 0 ? energy / to_seconds(s.runtime) : 0.0;

  o.measured = s.runtime >= kMinRuntime && c.inst_total > 0;
  return o;
}

bool SensingSubsystem::accept_fresh(const ThreadObservation& o,
                                    const os::EpochSample& s) {
  if (check_plausibility(o, s.counters) == PlausibilityVerdict::kImplausible) {
    ++health_.implausible_rejected;
    bump("sense.implausible_rejected");
    return false;
  }
  // A thread that executed a full epoch while its rail reported (near)
  // nothing is on a dead or stuck-at-zero power sensor.
  if (s.runtime >= kMinRuntime && o.power_w < kMinPowerW) {
    ++health_.implausible_rejected;
    bump("sense.implausible_rejected");
    return false;
  }
  // Outlier screen: fresh throughput against the median of the thread's
  // recent accepted history. Catches saturation/duplication artefacts that
  // stay inside the physical envelope.
  const auto it = thread_health_.find(s.tid);
  if (it != thread_health_.end() &&
      it->second.ips_history.size() >= kMinHistory) {
    std::vector<double> h = it->second.ips_history;
    std::nth_element(h.begin(), h.begin() + h.size() / 2, h.end());
    const double med = h[h.size() / 2];
    if (med > 0 &&
        (o.ips > med * kOutlierFactor || o.ips < med / kOutlierFactor)) {
      ++health_.outliers_rejected;
      bump("sense.outliers_rejected");
      return false;
    }
  }
  return true;
}

void SensingSubsystem::note_accepted(ThreadId tid, double ips) {
  ThreadHealth& h = thread_health_[tid];
  h.confidence = 1.0;
  h.stale_epochs = 0;
  if (h.ips_history.size() < kMedianWindow) {
    h.ips_history.push_back(ips);
  } else {
    h.ips_history[h.ips_next] = ips;
    h.ips_next = (h.ips_next + 1) % kMedianWindow;
  }
}

void SensingSubsystem::note_rejected(ThreadId tid) {
  ThreadHealth& h = thread_health_[tid];
  h.confidence *= kHealthDecay;
}

std::vector<ThreadObservation> SensingSubsystem::observe(
    const std::vector<os::EpochSample>& samples) {
  std::vector<ThreadObservation> out;
  out.reserve(samples.size());
  for (const auto& s : samples) {
    ThreadObservation o = reduce(s);
    sanitize_observation(o);
    if (defended_ && o.measured && !accept_fresh(o, s)) {
      // Corrupted fresh measurement: discard it and fall through to the
      // stale-serve path, exactly as if the thread had not run.
      o.measured = false;
      note_rejected(s.tid);
    } else if (defended_ && !o.measured && s.runtime >= kMinRuntime) {
      // Ran a full epoch yet retired nothing — the blackout signature; the
      // sensing infrastructure (not the thread) is the problem.
      ++health_.implausible_rejected;
      bump("sense.implausible_rejected");
      note_rejected(s.tid);
    }
    // A freshly migrated thread's counters reflect cold caches, not the
    // core; keep the previous characterization until it has warmed up
    // (otherwise every migration makes the new core look bad and the old
    // one look good, and the loop ping-pongs).
    if (o.measured && !s.warm && last_good_.count(s.tid) > 0) {
      ThreadObservation cached = last_good_.at(s.tid);
      cached.util = s.util;
      cached.runtime = s.runtime;
      out.push_back(cached);
      continue;
    }
    if (o.measured) {
      if (defended_) note_accepted(s.tid, o.ips);
      const auto it = last_good_.find(s.tid);
      if (cfg_.smoothing > 0 && it != last_good_.end() &&
          it->second.core_type == o.core_type) {
        const double h = std::min(cfg_.smoothing, 0.95);
        auto blend = [h](double prev, double fresh) {
          return h * prev + (1.0 - h) * fresh;
        };
        const ThreadObservation& prev = it->second;
        o.ipc = blend(prev.ipc, o.ipc);
        o.ips = blend(prev.ips, o.ips);
        o.power_w = blend(prev.power_w, o.power_w);
        o.imsh = blend(prev.imsh, o.imsh);
        o.ibsh = blend(prev.ibsh, o.ibsh);
        o.mr_branch = blend(prev.mr_branch, o.mr_branch);
        o.mr_l1i = blend(prev.mr_l1i, o.mr_l1i);
        o.mr_l1d = blend(prev.mr_l1d, o.mr_l1d);
        o.mr_itlb = blend(prev.mr_itlb, o.mr_itlb);
        o.mr_dtlb = blend(prev.mr_dtlb, o.mr_dtlb);
      }
      last_good_[s.tid] = o;
    } else {
      const auto it = last_good_.find(s.tid);
      if (defended_) {
        ThreadHealth& h = thread_health_[s.tid];
        ++h.stale_epochs;
        if (it != last_good_.end() &&
            h.stale_epochs <= kMaxStaleEpochs) {
          // Stale but recently characterized: reuse the last measurement,
          // refreshed with the current utilization.
          o = it->second;
          o.util = s.util;
          o.runtime = s.runtime;
          ++health_.stale_served;
          bump("sense.stale_served");
        } else {
          // Too stale to trust (or never characterized): hand the predictor
          // the neutral prior instead of fossil data.
          ThreadObservation neutral;
          neutral.tid = s.tid;
          neutral.core = s.core;
          neutral.core_type = o.core_type;
          neutral.freq_mhz = o.freq_mhz;
          neutral.util = s.util;
          neutral.runtime = s.runtime;
          if (it != last_good_.end()) {
            ++health_.neutral_served;
            bump("sense.neutral_served");
          }
          o = neutral;
        }
      } else if (it != last_good_.end()) {
        // Stale but characterized: reuse the last measurement, refreshed
        // with the current utilization.
        o = it->second;
        o.util = s.util;
        o.runtime = s.runtime;
      }
    }
    out.push_back(o);
  }
  if (defended_ && !samples.empty()) {
    std::size_t healthy = 0;
    for (const auto& s : samples) {
      const auto it = thread_health_.find(s.tid);
      const double conf = it != thread_health_.end() ? it->second.confidence : 1.0;
      if (conf >= kHealthyThreshold) ++healthy;
    }
    health_.healthy_fraction =
        static_cast<double>(healthy) / static_cast<double>(samples.size());
    if (obs_ != nullptr) {
      obs_->metrics().gauge("sense.healthy_fraction").set(
          health_.healthy_fraction);
    }
  }
  garbage_collect(samples);
  return out;
}

void SensingSubsystem::garbage_collect(
    const std::vector<os::EpochSample>& samples) {
  if (last_good_.size() < 2 * samples.size() + 16) return;
  std::unordered_map<ThreadId, ThreadObservation> kept;
  std::unordered_map<ThreadId, ThreadHealth> kept_health;
  for (const auto& s : samples) {
    const auto it = last_good_.find(s.tid);
    if (it != last_good_.end()) kept.insert(*it);
    const auto ht = thread_health_.find(s.tid);
    if (ht != thread_health_.end()) kept_health.insert(*ht);
  }
  last_good_ = std::move(kept);
  thread_health_ = std::move(kept_health);
}

}  // namespace sb::core
