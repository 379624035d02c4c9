// Sink: the single handle instrumented code holds onto. Call sites keep an
// `obs::Sink*` that is null when observability is off, so every hook is one
// pointer test on the hot path — nothing else is evaluated (TraceArgs are
// built inside the `if`). When on, the sink owns the per-run MetricsRegistry
// and (optionally) the EpochTracer ring.
//
// Observability is strictly read-only with respect to the simulation: it
// draws no random numbers, performs no floating-point work that feeds back
// into state, and mutates nothing outside its own buffers — enabling it must
// never change a golden CSV.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/slo.h"
#include "obs/timeseries.h"
#include "obs/trace.h"

namespace sb::obs {

struct ObsConfig {
  bool metrics = false;
  /// Epoch tracer, keeping the newest 65,536 events (see obs/trace.h).
  bool trace = false;
  /// Prediction-audit flight recorder (see obs/audit.h).
  bool audit = false;
  /// Windowed time-series sampler (see obs/timeseries.h).
  TimeseriesConfig timeseries;
  /// Burn-rate objectives over the sampled signals (see obs/slo.h);
  /// non-empty implies the timeseries sampler.
  SloConfig slo;

  bool enabled() const {
    return metrics || trace || audit || timeseries.enabled || !slo.empty();
  }
};

class Sink {
 public:
  explicit Sink(ObsConfig cfg);

  const ObsConfig& config() const { return cfg_; }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Null when tracing is off — check before recording trace events.
  EpochTracer* tracer() { return tracer_.get(); }
  const EpochTracer* tracer() const { return tracer_.get(); }

  /// Null when the audit recorder is off — check before recording.
  AuditRecorder* audit() { return audit_.get(); }
  const AuditRecorder* audit() const { return audit_.get(); }

  /// Null when the timeseries sampler is off — check before recording.
  TimeseriesRecorder* timeseries() { return timeseries_.get(); }
  const TimeseriesRecorder* timeseries() const { return timeseries_.get(); }

  /// Null when no SLO objectives are attached.
  SloEngine* slo() { return slo_.get(); }
  const SloEngine* slo() const { return slo_.get(); }

  /// Closes the frame a sampler opened with timeseries()->begin_frame():
  /// bumps the tsdb.* counters and scores every SLO objective against the
  /// frame's signals. No-op without the recorder.
  void complete_frame();

  /// Positions subsequent events on the simulated timeline: `epoch` is the
  /// balance-pass index and `now_ns` its simulated timestamp.
  void begin_epoch(std::uint64_t epoch, std::uint64_t now_ns) {
    epoch_ = epoch;
    now_ns_ = now_ns;
  }
  std::uint64_t epoch() const { return epoch_; }
  std::uint64_t now_ns() const { return now_ns_; }

  /// Detaches everything recorded so far into a mergeable RunObs.
  RunObs snapshot(std::string label = {}) const;

 private:
  ObsConfig cfg_;
  MetricsRegistry metrics_;
  std::unique_ptr<EpochTracer> tracer_;
  std::unique_ptr<AuditRecorder> audit_;
  std::unique_ptr<TimeseriesRecorder> timeseries_;
  std::unique_ptr<SloEngine> slo_;
  std::uint64_t epoch_ = 0;
  std::uint64_t now_ns_ = 0;
};

/// RAII span: measures host wall-clock from construction to destruction and
/// records an 'X' event at the sink's current simulated timestamp (plus an
/// optional offset, used to lay phases out sequentially inside one epoch).
/// A null sink — or a sink without a tracer — makes every member a no-op.
class ScopedSpan {
 public:
  ScopedSpan(Sink* sink, std::string_view name,
             std::uint64_t ts_offset_ns = 0)
      : sink_(sink != nullptr && sink->tracer() != nullptr ? sink : nullptr),
        name_(name),
        ts_offset_ns_(ts_offset_ns) {
    if (sink_ != nullptr) start_ = std::chrono::steady_clock::now();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() {
    if (sink_ == nullptr) return;
    const auto dur = std::chrono::steady_clock::now() - start_;
    sink_->tracer()->span(
        name_, sink_->now_ns() + ts_offset_ns_,
        static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(dur).count()),
        sink_->epoch());
  }

 private:
  Sink* sink_;
  std::string_view name_;
  std::uint64_t ts_offset_ns_;
  std::chrono::steady_clock::time_point start_{};
};

}  // namespace sb::obs
