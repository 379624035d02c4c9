// Continuous telemetry plane: a deterministic windowed time series.
//
// The metrics registry answers "what happened over the whole run"; the
// TimeseriesRecorder answers "how did it evolve". A sampler (the Simulation
// stepping loop, or the fleet quantum loop) snapshots a signal set — J_E,
// per-core-type watts/GIPS, migrations, degraded/drift state, SA accept
// rate, wake-to-run tail estimate, per-node fleet health — into a
// fixed-capacity ring of (t_ns, signal, value) rows at an --obs-window
// cadence. Timestamps are *simulated* nanoseconds only: no host clocks ever
// enter a row, so the export is a deterministic function of the run and
// stays byte-identical across --jobs worker counts.
//
// Signal names are interned once into a per-recorder obs::NameTable (exactly
// like the EpochTracer); a sample is a 24-byte POD and recording one is two
// stores into a pre-grown obs::Ring — no allocation on the record path after
// construction. Overflow keeps the newest `capacity` samples; overwritten
// rows are counted in dropped() and surfaced in the export, so a truncated
// series is never mistaken for a complete one.
//
// Export (`#sb-tsdb v1`, see write_timeseries): packed CSV in the
// #sb-audit style — schema-versioned, run blocks ordered by stamped run
// index, shortest-round-trip doubles. A `.json` path selects the JSON
// rendering of the same data. write_prometheus renders the *metrics
// registries* of a run set as a Prometheus text exposition snapshot with
// per-node labels (run 0 = the fleet itself, run i>0 = node i-1).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.h"
#include "obs/store.h"

namespace sb::obs {

struct RunObs;  // obs/trace.h

inline constexpr int kTimeseriesSchemaVersion = 1;

/// Sampler configuration; also the `--obs-window=<ms>[:capacity]` grammar
/// (fields per common/spec.h: parse throws std::invalid_argument,
/// canonical() round-trips bit for bit).
struct TimeseriesConfig {
  bool enabled = false;
  /// Sampling cadence in simulated time (one frame per window).
  TimeNs window = milliseconds(10);
  /// Ring capacity in samples (rows, not frames); oldest rows drop.
  std::size_t capacity = std::size_t{1} << 16;

  /// Parses "<window_ms>[:<capacity>]", e.g. "10" or "5:8192". Enables the
  /// sampler. Throws std::invalid_argument naming the offending token.
  static TimeseriesConfig parse(const std::string& text);
  /// The spec that parse() reads back to this config, bit for bit.
  std::string canonical() const;
};

/// One sampled point: the signal's value at simulated time t_ns.
struct TimeseriesSample {
  std::uint64_t t_ns = 0;
  std::uint32_t signal = 0;  // interned name id
  double value = 0;
};

class TimeseriesRecorder {
 public:
  explicit TimeseriesRecorder(TimeseriesConfig cfg);

  const TimeseriesConfig& config() const { return cfg_; }
  TimeNs window() const { return cfg_.window; }

  /// Interns a signal name, returning a stable id (idempotent per string).
  std::uint32_t intern(std::string_view name) { return names_.intern(name); }
  const std::vector<std::string>& names() const { return names_.names(); }

  /// Starts a frame at simulated time t_ns; subsequent record() calls are
  /// stamped with it and collected for same-frame consumers (SLO engine).
  void begin_frame(std::uint64_t t_ns);
  void record(std::uint32_t signal, double value);

  /// The (signal, value) pairs recorded since begin_frame.
  const std::vector<std::pair<std::uint32_t, double>>& frame() const {
    return frame_;
  }
  std::uint64_t frame_t_ns() const { return frame_t_ns_; }
  /// Latest value of `signal` in the current frame; `fallback` when absent.
  double frame_value(std::uint32_t signal, double fallback) const;

  std::size_t capacity() const { return ring_.capacity(); }
  /// Samples currently held (<= capacity).
  std::size_t size() const { return ring_.size(); }
  /// Total samples ever recorded.
  std::uint64_t recorded() const { return ring_.recorded(); }
  /// Samples overwritten by ring overflow (oldest-first).
  std::uint64_t dropped() const { return ring_.dropped(); }
  /// Frames started (sampler ticks).
  std::uint64_t frames() const { return frames_; }

  /// Drained copy of the ring in record (oldest -> newest) order plus the
  /// name table — everything an exporter needs, detached.
  struct Snapshot {
    std::vector<TimeseriesSample> samples;
    NameTable names;
    std::uint64_t dropped = 0;
    std::uint64_t frames = 0;
    TimeNs window = 0;

    std::string_view name_of(std::uint32_t id) const {
      return names.name_of(id);
    }
  };
  Snapshot snapshot() const;

 private:
  TimeseriesConfig cfg_;
  Ring<TimeseriesSample> ring_;
  NameTable names_;
  std::vector<std::pair<std::uint32_t, double>> frame_;
  std::uint64_t frame_t_ns_ = 0;
  std::uint64_t frames_ = 0;
};

/// Column list for the sample rows, kept in one place so the writer, the
/// schema JSON and the validators cannot drift apart silently.
const char* timeseries_sample_columns();  // "t_ns,signal,value"

/// Merges per-run snapshots into one `#sb-tsdb v1` export:
///   #sb-tsdb v1
///   #columns sample t_ns,signal,value
///   #run <index> <label>
///   #meta <index> window_ns=<ns>
///   sample,<t_ns>,<signal name>,<value>     rows, record order
///   #counters <index> samples=<n> frames=<n> dropped=<n>
///   #summary runs=<n>
/// Runs are ordered by stamped run index; runs without the recorder
/// enabled are skipped. Doubles use std::to_chars shortest round-trip.
void write_timeseries(std::ostream& os,
                      const std::vector<const RunObs*>& runs);
/// The same data as one JSON document (schema/version/runs[]).
void write_timeseries_json(std::ostream& os,
                           const std::vector<const RunObs*>& runs);
/// Dispatches on extension: ".json" selects the JSON rendering.
void write_timeseries_file(const std::string& path,
                           const std::vector<const RunObs*>& runs);

/// Prometheus text exposition snapshot of the run set's metrics
/// registries: counters and gauges become `sb_<name>` samples, histograms
/// become summaries (quantile/sum/count). Run 0 carries no labels (the
/// fleet itself); run i > 0 is labelled node="i-1". Deterministic: metric
/// names sorted, runs ordered by stamped index.
void write_prometheus(std::ostream& os,
                      const std::vector<const RunObs*>& runs);
void write_prometheus_file(const std::string& path,
                           const std::vector<const RunObs*>& runs);

}  // namespace sb::obs
