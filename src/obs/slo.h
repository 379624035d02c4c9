// SLO engine: rolling-window burn-rate objectives over the timeseries.
//
// An Objective watches one timeseries signal against a threshold
// ("p99_wake_us must stay below 2000"). Every sampler frame scores one
// sample: violating or not. The engine keeps a rolling window of the last
// W samples per objective and compares the violating fraction against the
// objective's burn budget — the SRE burn-rate idiom: `burn=0.02` tolerates
// 2% of the window in violation before the SLO is *breached*; `burn=0`
// breaches on the first violation. Breach and recovery are edge events:
// they emit `slo.breach` / `slo.recovered` trace instants, bump the
// `slo.*` counters, and every frame appends `slo.burn.<signal>` /
// `slo.breached.<signal>` rows back into the timeseries so dashboards
// (sbtop) can render burn gauges next to the raw signals.
//
// Grammar (fields per common/spec.h; parse throws std::invalid_argument
// and canonical() round-trips bit for bit):
//   spec      := objective ("," objective)*
//   objective := signal ("<" | ">") threshold (":" option)*
//   option    := "burn=" fraction | "window=" ms
// e.g. --slo=p99_wake_us<2000:burn=0.02,je>55e6:window=200
//
// Determinism: the engine reads only sampler frames (simulated time) and
// writes only obs-layer state; a run with an SLO attached produces
// byte-identical exports across --jobs worker counts, and enabling it
// never changes a golden CSV.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"
#include "obs/store.h"
#include "obs/timeseries.h"

namespace sb::obs {

class EpochTracer;  // obs/trace.h

struct SloObjective {
  /// Timeseries signal the objective watches (e.g. "p99_wake_us", "je").
  std::string signal;
  /// true: value must stay strictly below threshold; false: strictly above.
  bool upper = true;
  double threshold = 0;
  /// Violating fraction of the rolling window tolerated before breach.
  double burn = 0;
  /// Rolling window length in simulated time (>= one sampler frame).
  TimeNs window = milliseconds(200);

  std::string canonical() const;
};

struct SloConfig {
  std::vector<SloObjective> objectives;

  bool empty() const { return objectives.empty(); }

  /// Parses the grammar above; throws std::invalid_argument naming the
  /// offending token. An empty spec string is invalid.
  static SloConfig parse(const std::string& text);
  /// The grammar string that parses back to these objectives.
  std::string canonical() const;
};

class SloEngine {
 public:
  /// `sample_window` is the sampler cadence (TimeseriesConfig::window); an
  /// objective's rolling window spans window / sample_window frames.
  SloEngine(SloConfig cfg, TimeNs sample_window);

  const SloConfig& config() const { return cfg_; }

  /// Scores the frame currently open on `rec` (between the sampler's
  /// begin_frame and this call): updates every objective's rolling window,
  /// records burn/breached signals into `rec`, bumps `slo.*` counters in
  /// `metrics`, and emits breach/recovery instants on `tracer` (nullable).
  void on_frame(TimeseriesRecorder& rec, MetricsRegistry& metrics,
                EpochTracer* tracer, std::uint64_t epoch);

  /// Total breach transitions across all objectives (drives --slo-strict).
  std::uint64_t breaches() const { return breaches_; }
  std::uint64_t recoveries() const { return recoveries_; }
  /// Frames scored while at least one objective sat in breached state.
  std::uint64_t breach_frames() const { return breach_frames_; }
  bool ever_breached() const { return breaches_ > 0; }

 private:
  struct State {
    std::uint32_t signal_id = 0;    // resolved against rec on first frame
    std::uint32_t burn_id = 0;      // slo.burn.<signal>
    std::uint32_t breached_id = 0;  // slo.breached.<signal>
    /// Violation flags of the objective's window (window / sample_window
    /// frames), oldest overwritten first.
    Ring<unsigned char> window{1};
    std::size_t violating = 0;
    bool breached = false;
  };

  SloConfig cfg_;
  TimeNs sample_window_;
  std::vector<State> states_;
  bool resolved_ = false;
  std::uint64_t breaches_ = 0;
  std::uint64_t recoveries_ = 0;
  std::uint64_t breach_frames_ = 0;
};

}  // namespace sb::obs
