#include "obs/trace.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <stdexcept>

namespace sb::obs {

// The ring pre-grows 4096 slots; a longer run grows it on the record path.
EpochTracer::EpochTracer(std::size_t capacity) : ring_(capacity, 1 << 12) {}

void EpochTracer::push(TraceEvent ev, TraceArgs args) {
  for (const auto& [key, value] : args) {
    if (ev.nargs >= ev.args.size()) break;
    ev.args[ev.nargs++] = TraceArg{intern(key), value};
  }
  ev.seq = ring_.recorded();
  ring_.push(ev);
}

void EpochTracer::span(std::string_view name, std::uint64_t ts_ns,
                       std::uint64_t dur_ns, std::uint64_t epoch,
                       TraceArgs args) {
  TraceEvent ev;
  ev.name = intern(name);
  ev.phase = 'X';
  ev.ts_ns = ts_ns;
  ev.dur_ns = dur_ns;
  ev.epoch = epoch;
  push(ev, args);
}

void EpochTracer::instant(std::string_view name, std::uint64_t ts_ns,
                          std::uint64_t epoch, TraceArgs args) {
  TraceEvent ev;
  ev.name = intern(name);
  ev.phase = 'i';
  ev.ts_ns = ts_ns;
  ev.dur_ns = 0;
  ev.epoch = epoch;
  push(ev, args);
}

EpochTracer::Snapshot EpochTracer::snapshot() const {
  Snapshot snap;
  snap.events = ring_.snapshot();
  snap.names = names_;
  snap.dropped = ring_.dropped();
  return snap;
}

std::vector<const RunObs*> ordered_runs(const std::vector<const RunObs*>& runs,
                                        bool RunObs::*keep) {
  std::vector<const RunObs*> ordered;
  ordered.reserve(runs.size());
  for (const RunObs* r : runs) {
    if (r != nullptr && (keep == nullptr || r->*keep)) ordered.push_back(r);
  }
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const RunObs* a, const RunObs* b) {
                     return a->run != b->run ? a->run < b->run
                                             : a->label < b->label;
                   });
  return ordered;
}

namespace {

/// Chrome trace timestamps are microseconds; keep nanosecond precision.
void json_us(std::ostream& os, std::uint64_t ns) {
  os << ns / 1000 << '.' << static_cast<char>('0' + (ns % 1000) / 100)
     << static_cast<char>('0' + (ns % 100) / 10)
     << static_cast<char>('0' + ns % 10);
}

void write_event(std::ostream& os, const RunObs& run, const TraceEvent& ev) {
  os << "{\"name\":";
  json_string(os, run.trace.name_of(ev.name));
  os << ",\"cat\":\"epoch\",\"ph\":\"" << ev.phase << "\",\"ts\":";
  json_us(os, ev.ts_ns);
  if (ev.phase == 'X') {
    os << ",\"dur\":";
    json_us(os, ev.dur_ns);
  }
  if (ev.phase == 'i') os << ",\"s\":\"t\"";
  os << ",\"pid\":" << run.run << ",\"tid\":0,\"args\":{\"epoch\":"
     << ev.epoch;
  for (std::uint8_t a = 0; a < ev.nargs; ++a) {
    os << ',';
    json_string(os, run.trace.name_of(ev.args[a].key));
    os << ':';
    json_number(os, ev.args[a].value);
  }
  os << "}}";
}

}  // namespace

void write_chrome_trace(std::ostream& os,
                        const std::vector<const RunObs*>& runs) {
  // Deterministic merge: runs in ordered_runs() order, then events by
  // (epoch, seq). Per-run snapshots are already seq-sorted, but a stable
  // explicit sort makes the contract independent of that detail.
  const auto ordered = ordered_runs(runs, &RunObs::trace_enabled);

  os << "{\"traceEvents\":[";
  bool first = true;
  std::uint64_t total_events = 0;
  std::uint64_t total_dropped = 0;
  for (const RunObs* run : ordered) {
    if (!first) os << ',';
    first = false;
    os << "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":"
       << run->run << ",\"tid\":0,\"args\":{\"name\":";
    json_string(os, run->label.empty() ? std::string("run") : run->label);
    os << "}}";
    std::vector<const TraceEvent*> events;
    events.reserve(run->trace.events.size());
    for (const TraceEvent& ev : run->trace.events) events.push_back(&ev);
    std::stable_sort(events.begin(), events.end(),
                     [](const TraceEvent* a, const TraceEvent* b) {
                       return a->epoch != b->epoch ? a->epoch < b->epoch
                                                   : a->seq < b->seq;
                     });
    for (const TraceEvent* ev : events) {
      os << ',';
      write_event(os, *run, *ev);
      ++total_events;
    }
    total_dropped += run->trace.dropped;
  }
  os << "],\"displayTimeUnit\":\"ms\",\"smartbalance\":{\"runs\":"
     << ordered.size() << ",\"events\":" << total_events
     << ",\"dropped_events\":" << total_dropped << "}}\n";
}

void write_chrome_trace_file(const std::string& path,
                             const std::vector<const RunObs*>& runs) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  write_chrome_trace(out, runs);
}

MetricsRegistry merge_metrics(const std::vector<const RunObs*>& runs) {
  MetricsRegistry merged;
  for (const RunObs* run : ordered_runs(runs)) {
    merged.merge(run->metrics, run->run);
  }
  return merged;
}

}  // namespace sb::obs
