#include "obs/timeseries.h"

#include <cmath>
#include <fstream>
#include <map>
#include <ostream>
#include <stdexcept>

#include "common/spec.h"
#include "obs/trace.h"

namespace sb::obs {

namespace {

constexpr char kSampleCols[] = "t_ns,signal,value";

using spec::append_double;
using spec::append_int;

// <window_ms>[:<capacity>]; the capacity default matches TimeseriesConfig.
constexpr spec::Field kFields[] = {
    {"window_ms", spec::Kind::kInt, 1, 60'000},
    {"capacity", spec::Kind::kInt, 64, 1 << 24, 1 << 16},
};

}  // namespace

TimeseriesConfig TimeseriesConfig::parse(const std::string& text) {
  TimeseriesConfig cfg;
  cfg.enabled = true;
  double v[] = {0, static_cast<double>(cfg.capacity)};
  spec::read_fields("--obs-window", kFields, spec::split(text, ':'), v);
  // Integer milliseconds round-trip exactly (no float ms -> ns drift).
  cfg.window = milliseconds(static_cast<std::int64_t>(v[0]));
  cfg.capacity = static_cast<std::size_t>(v[1]);
  return cfg;
}

std::string TimeseriesConfig::canonical() const {
  std::string out;
  spec::append_fields(out, kFields,
                      {static_cast<double>(window / milliseconds(1)),
                       static_cast<double>(capacity)});
  return out;
}

// Pre-grow everything the record path touches: sampling must stay
// allocation-free so the tsdb-on epoch-pass alloc gate is exact.
TimeseriesRecorder::TimeseriesRecorder(TimeseriesConfig cfg)
    : cfg_(cfg), ring_(cfg.capacity, std::size_t{1} << 16) {
  cfg_.capacity = ring_.capacity();
  if (cfg_.window <= 0) cfg_.window = milliseconds(10);
  frame_.reserve(64);
}

void TimeseriesRecorder::begin_frame(std::uint64_t t_ns) {
  frame_t_ns_ = t_ns;
  frame_.clear();
  ++frames_;
}

void TimeseriesRecorder::record(std::uint32_t signal, double value) {
  ring_.push({frame_t_ns_, signal, value});
  frame_.emplace_back(signal, value);
}

double TimeseriesRecorder::frame_value(std::uint32_t signal,
                                       double fallback) const {
  for (auto it = frame_.rbegin(); it != frame_.rend(); ++it) {
    if (it->first == signal) return it->second;
  }
  return fallback;
}

TimeseriesRecorder::Snapshot TimeseriesRecorder::snapshot() const {
  Snapshot out;
  out.samples = ring_.snapshot();
  out.names = names_;
  out.dropped = ring_.dropped();
  out.frames = frames_;
  out.window = cfg_.window;
  return out;
}

// --- exporters ------------------------------------------------------------

const char* timeseries_sample_columns() { return kSampleCols; }

void write_timeseries(std::ostream& os,
                      const std::vector<const RunObs*>& runs) {
  os << "#sb-tsdb v" << kTimeseriesSchemaVersion << '\n';
  os << "#columns sample " << kSampleCols << '\n';
  const auto ordered = ordered_runs(runs, &RunObs::timeseries_enabled);
  std::string line;
  for (const RunObs* r : ordered) {
    const auto& ts = r->timeseries;
    os << "#run " << r->run << ' ' << (r->label.empty() ? "run" : r->label)
       << '\n';
    os << "#meta " << r->run << " window_ns=" << ts.window << '\n';
    for (const TimeseriesSample& s : ts.samples) {
      line = "sample,";
      append_int(line, s.t_ns);
      line += ',';
      line += ts.name_of(s.signal);
      line += ',';
      append_double(line, s.value);
      line += '\n';
      os << line;
    }
    os << "#counters " << r->run << " samples=" << ts.samples.size()
       << " frames=" << ts.frames << " dropped=" << ts.dropped << '\n';
  }
  os << "#summary runs=" << ordered.size() << '\n';
}

void write_timeseries_json(std::ostream& os,
                           const std::vector<const RunObs*>& runs) {
  const auto ordered = ordered_runs(runs, &RunObs::timeseries_enabled);
  os << "{\"schema\":\"sb-tsdb\",\"version\":" << kTimeseriesSchemaVersion
     << ",\"runs\":[";
  bool first_run = true;
  std::string num;
  for (const RunObs* r : ordered) {
    const auto& ts = r->timeseries;
    if (!first_run) os << ',';
    first_run = false;
    os << "{\"run\":" << r->run << ",\"label\":";
    json_string(os, r->label.empty() ? "run" : r->label);
    os << ",\"window_ns\":" << ts.window << ",\"frames\":" << ts.frames
       << ",\"dropped\":" << ts.dropped << ",\"samples\":[";
    bool first = true;
    for (const TimeseriesSample& s : ts.samples) {
      if (!first) os << ',';
      first = false;
      os << '[' << s.t_ns << ',';
      json_string(os, ts.name_of(s.signal));
      os << ',';
      num.clear();
      append_double(num, s.value);
      // JSON has no inf/nan literals; the recorder never produces them,
      // render defensively as null.
      os << (std::isfinite(s.value) ? num : "null") << ']';
    }
    os << "]}";
  }
  os << "]}\n";
}

void write_timeseries_file(const std::string& path,
                           const std::vector<const RunObs*>& runs) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open timeseries export: " + path);
  if (path.size() >= 5 && path.compare(path.size() - 5, 5, ".json") == 0) {
    write_timeseries_json(os, runs);
  } else {
    write_timeseries(os, runs);
  }
}

// --- Prometheus exposition ------------------------------------------------

namespace {

/// Prometheus metric name: [a-zA-Z_:][a-zA-Z0-9_:]*; everything else
/// (dots, dashes) maps to '_', prefixed "sb_".
std::string prom_name(std::string_view name) {
  std::string out = "sb_";
  for (char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out += ok ? c : '_';
  }
  return out;
}

/// Label set for a run: run 0 is the fleet itself (no labels); run i > 0
/// is node i-1.
std::string prom_labels(int run) {
  if (run <= 0) return {};
  return "{node=\"" + std::to_string(run - 1) + "\"}";
}

std::string prom_quantile_labels(int run, const char* q) {
  std::string out = "{";
  if (run > 0) out += "node=\"" + std::to_string(run - 1) + "\",";
  out += "quantile=\"";
  out += q;
  out += "\"}";
  return out;
}

void prom_value(std::ostream& os, double v) {
  std::string num;
  append_double(num, v);
  os << num;
}

}  // namespace

void write_prometheus(std::ostream& os,
                      const std::vector<const RunObs*>& runs) {
  const auto ordered = ordered_runs(runs);
  // One HELP/TYPE block per metric name, then one sample line per run that
  // carries the metric — the exposition-format shape scrapers expect.
  std::map<std::string, char> kinds;  // name -> 'c' | 'g' | 'h'
  for (const RunObs* r : ordered) {
    for (const auto& [name, c] : r->metrics.counters()) kinds[name] = 'c';
    for (const auto& [name, g] : r->metrics.gauges()) kinds[name] = 'g';
    for (const auto& [name, h] : r->metrics.histograms()) kinds[name] = 'h';
  }
  for (const auto& [name, kind] : kinds) {
    const std::string pname = prom_name(name);
    os << "# HELP " << pname << " smartbalance metric " << name << '\n';
    os << "# TYPE " << pname << ' '
       << (kind == 'c' ? "counter" : kind == 'g' ? "gauge" : "summary")
       << '\n';
    for (const RunObs* r : ordered) {
      if (kind == 'c') {
        const auto it = r->metrics.counters().find(name);
        if (it == r->metrics.counters().end()) continue;
        os << pname << prom_labels(r->run) << ' ' << it->second.value << '\n';
      } else if (kind == 'g') {
        const auto it = r->metrics.gauges().find(name);
        if (it == r->metrics.gauges().end()) continue;
        os << pname << prom_labels(r->run) << ' ';
        prom_value(os, it->second.value);
        os << '\n';
      } else {
        const auto it = r->metrics.histograms().find(name);
        if (it == r->metrics.histograms().end()) continue;
        const Histogram& h = it->second;
        os << pname << prom_quantile_labels(r->run, "0.5") << ' '
           << h.quantile(0.50) << '\n';
        os << pname << prom_quantile_labels(r->run, "0.9") << ' '
           << h.quantile(0.90) << '\n';
        os << pname << prom_quantile_labels(r->run, "0.99") << ' '
           << h.quantile(0.99) << '\n';
        os << pname << "_sum" << prom_labels(r->run) << ' ' << h.sum() << '\n';
        os << pname << "_count" << prom_labels(r->run) << ' ' << h.count()
           << '\n';
      }
    }
  }
}

void write_prometheus_file(const std::string& path,
                           const std::vector<const RunObs*>& runs) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open prometheus export: " + path);
  write_prometheus(os, runs);
}

}  // namespace sb::obs
