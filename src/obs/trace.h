// Epoch tracer: structured span/instant events from inside the balancing
// loop, recorded into a fixed-capacity ring buffer and exported as Chrome
// trace-event JSON (load the file in Perfetto or chrome://tracing).
//
// The timeline is *simulated* time (one process row per run, epochs every
// T_Epoch); span durations are host wall-clock, so each epoch boundary
// shows the real sense → predict → balance cost laid out sequentially.
// Event names and argument keys are interned once into a per-tracer name
// table; an event itself is a small POD, and recording one is a couple of
// stores into a pre-grown obs::Ring — no allocation, no locks (the tracer
// is single-producer by construction: one Simulation, one tracer).
//
// Overflow policy: the ring keeps the newest `capacity` events; the oldest
// are overwritten and counted in dropped(), which is also surfaced in the
// exported JSON so a truncated trace is never mistaken for a complete one.
#pragma once

#include <array>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/audit.h"
#include "obs/metrics.h"
#include "obs/store.h"
#include "obs/timeseries.h"

namespace sb::obs {

struct TraceArg {
  std::uint32_t key = 0;  // interned string id
  double value = 0;
};

struct TraceEvent {
  std::uint32_t name = 0;  // interned string id
  char phase = 'X';        // 'X' = complete span, 'i' = instant
  std::uint64_t ts_ns = 0;   // timeline position (simulated ns + offset)
  std::uint64_t dur_ns = 0;  // span duration (host ns); 0 for instants
  std::uint64_t epoch = 0;   // balance-pass index the event belongs to
  std::uint64_t seq = 0;     // per-run record order (stable sort key)
  std::uint8_t nargs = 0;
  std::array<TraceArg, 4> args{};
};

/// Named (key, value) pairs attached to an event; at most 4 are kept.
using TraceArgs = std::initializer_list<std::pair<std::string_view, double>>;

class EpochTracer {
 public:
  explicit EpochTracer(std::size_t capacity);

  /// Interns a name, returning a stable id (idempotent per string).
  std::uint32_t intern(std::string_view name) { return names_.intern(name); }
  const std::vector<std::string>& names() const { return names_.names(); }

  void span(std::string_view name, std::uint64_t ts_ns, std::uint64_t dur_ns,
            std::uint64_t epoch, TraceArgs args = {});
  void instant(std::string_view name, std::uint64_t ts_ns, std::uint64_t epoch,
               TraceArgs args = {});

  std::size_t capacity() const { return ring_.capacity(); }
  /// Events currently held (<= capacity).
  std::size_t size() const { return ring_.size(); }
  /// Total events ever recorded.
  std::uint64_t recorded() const { return ring_.recorded(); }
  /// Events overwritten by ring overflow (oldest-first).
  std::uint64_t dropped() const { return ring_.dropped(); }

  /// Drained copy of the ring in seq (oldest → newest) order plus the
  /// name table — everything an exporter needs, detached from the tracer.
  struct Snapshot {
    std::vector<TraceEvent> events;
    NameTable names;
    std::uint64_t dropped = 0;

    std::string_view name_of(std::uint32_t id) const {
      return names.name_of(id);
    }
  };
  Snapshot snapshot() const;

 private:
  void push(TraceEvent ev, TraceArgs args);

  Ring<TraceEvent> ring_;
  NameTable names_;
};

/// Everything observability produced for one simulation run: the metrics
/// registry and the drained trace. Runs are merged by the experiment
/// harnesses; `run` is the spec's submission index (stamped by
/// ExperimentRunner), which keys the deterministic merge order.
struct RunObs {
  int run = 0;
  std::string label;
  bool metrics_enabled = false;
  bool trace_enabled = false;
  bool audit_enabled = false;
  bool timeseries_enabled = false;
  MetricsRegistry metrics;
  EpochTracer::Snapshot trace;
  AuditSnapshot audit;
  TimeseriesRecorder::Snapshot timeseries;
};

/// The non-null runs (only those with `keep` set, when given) in stamped
/// run-index order, ties broken by label: the one merge order every
/// exporter uses, so an export is a deterministic function of the run set —
/// independent of the order runs are passed in and of the --jobs worker
/// count that produced them.
std::vector<const RunObs*> ordered_runs(const std::vector<const RunObs*>& runs,
                                        bool RunObs::*keep = nullptr);

/// Merges per-run traces into one Chrome trace-event JSON document:
/// `{"traceEvents":[...],"smartbalance":{...}}`. Each traced run becomes
/// one process (pid = run index) with a process_name metadata record; runs
/// without the tracer are skipped. Events are stable-sorted by (run, epoch,
/// seq), so the output is a deterministic function of the per-run snapshots
/// — independent of the order runs are passed in and of the --jobs worker
/// count that produced them.
void write_chrome_trace(std::ostream& os, const std::vector<const RunObs*>& runs);
void write_chrome_trace_file(const std::string& path,
                             const std::vector<const RunObs*>& runs);

/// Name-ordered merge of every run's metrics registry.
MetricsRegistry merge_metrics(const std::vector<const RunObs*>& runs);

}  // namespace sb::obs
