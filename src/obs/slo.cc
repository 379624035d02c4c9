#include "obs/slo.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <utility>

#include "common/spec.h"
#include "obs/trace.h"

namespace sb::obs {

namespace {

constexpr double kBurnEpsilon = 1e-12;

constexpr char kGrammar[] = "--slo";

constexpr spec::Field kThreshold = {"threshold", spec::Kind::kReal,
                                    -spec::kInf, spec::kInf};
// ":name=value" options; defaults match SloObjective.
constexpr spec::Field kOptions[] = {
    {"burn", spec::Kind::kReal, 0, 1, 0, spec::Range::kOpenHigh},
    {"window", spec::Kind::kInt, 1, 600'000, 200},
};

bool valid_signal(std::string_view s) {
  if (s.empty()) return false;
  const auto alpha = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
  };
  if (!alpha(s.front())) return false;
  for (char c : s) {
    if (!alpha(c) && !(c >= '0' && c <= '9') && c != '.') return false;
  }
  return true;
}

SloObjective parse_objective(std::string_view token) {
  SloObjective o;
  const std::size_t op = token.find_first_of("<>");
  if (op == std::string_view::npos) {
    throw std::invalid_argument("--slo: objective '" +
                                std::string(token) +
                                "' needs '<' or '>' after the signal name");
  }
  o.signal = std::string(token.substr(0, op));
  if (!valid_signal(o.signal)) {
    throw std::invalid_argument("--slo: bad signal name '" + o.signal +
                                "'");
  }
  o.upper = token[op] == '<';
  const auto fields = spec::split(token.substr(op + 1), ':');
  o.threshold = spec::read_field(kGrammar, kThreshold, fields[0]);
  double v[] = {o.burn, static_cast<double>(o.window / milliseconds(1))};
  for (std::size_t f = 1; f < fields.size(); ++f) {
    const auto kv = spec::split(fields[f], '=');
    const auto it = std::find_if(
        std::begin(kOptions), std::end(kOptions),
        [&](const spec::Field& opt) { return opt.name == kv[0]; });
    if (kv.size() != 2 || it == std::end(kOptions)) {
      throw std::invalid_argument("--slo: unknown option '" +
                                  std::string(fields[f]) + "'");
    }
    v[it - std::begin(kOptions)] = spec::read_field(kGrammar, *it, kv[1]);
  }
  o.burn = v[0];
  o.window = milliseconds(static_cast<std::int64_t>(v[1]));
  return o;
}

}  // namespace

std::string SloObjective::canonical() const {
  std::string out = signal;
  out += upper ? '<' : '>';
  spec::append_field(out, kThreshold, threshold);
  const double values[] = {burn,
                           static_cast<double>(window / milliseconds(1))};
  for (std::size_t i = 0; i < std::size(kOptions); ++i) {
    out += ':';
    out += kOptions[i].name;
    out += '=';
    spec::append_field(out, kOptions[i], values[i]);
  }
  return out;
}

SloConfig SloConfig::parse(const std::string& text) {
  if (text.empty()) {
    throw std::invalid_argument("--slo: empty spec");
  }
  SloConfig cfg;
  for (const std::string_view objective : spec::split(text, ',')) {
    cfg.objectives.push_back(parse_objective(objective));
  }
  return cfg;
}

std::string SloConfig::canonical() const {
  std::string out;
  for (std::size_t i = 0; i < objectives.size(); ++i) {
    if (i) out += ',';
    out += objectives[i].canonical();
  }
  return out;
}

SloEngine::SloEngine(SloConfig cfg, TimeNs sample_window)
    : cfg_(std::move(cfg)),
      sample_window_(sample_window > 0 ? sample_window : milliseconds(10)) {
  states_.resize(cfg_.objectives.size());
}

void SloEngine::on_frame(TimeseriesRecorder& rec, MetricsRegistry& metrics,
                         EpochTracer* tracer, std::uint64_t epoch) {
  if (!resolved_) {
    for (std::size_t i = 0; i < states_.size(); ++i) {
      State& st = states_[i];
      const SloObjective& o = cfg_.objectives[i];
      st.signal_id = rec.intern(o.signal);
      st.burn_id = rec.intern("slo.burn." + o.signal);
      st.breached_id = rec.intern("slo.breached." + o.signal);
      const auto frames = static_cast<std::size_t>(
          std::max<TimeNs>(1, o.window / sample_window_));
      st.window = Ring<unsigned char>(frames, frames);
    }
    resolved_ = true;
  }
  bool any_breached = false;
  for (std::size_t i = 0; i < states_.size(); ++i) {
    State& st = states_[i];
    const SloObjective& o = cfg_.objectives[i];
    const double v =
        rec.frame_value(st.signal_id, std::numeric_limits<double>::quiet_NaN());
    if (std::isnan(v)) continue;  // signal absent from this frame
    const bool violation = o.upper ? v >= o.threshold : v <= o.threshold;
    const std::size_t frames = st.window.capacity();
    if (st.window.size() == frames) {
      // The oldest flag, about to be overwritten, leaves the window.
      st.violating -= *st.window.find(st.window.dropped());
    }
    st.window.push(violation ? 1 : 0);
    st.violating += violation ? 1 : 0;

    metrics.counter("slo.samples").add();
    if (violation) metrics.counter("slo.violations").add();

    // Burn rate is the violating fraction of the *full* window, so the
    // budget means the same thing while the window is still filling.
    const double burn =
        static_cast<double>(st.violating) / static_cast<double>(frames);
    const bool over =
        static_cast<double>(st.violating) >
        o.burn * static_cast<double>(frames) + kBurnEpsilon;
    if (over && !st.breached) {
      st.breached = true;
      ++breaches_;
      metrics.counter("slo.breaches").add();
      if (tracer != nullptr) {
        tracer->instant("slo.breach", rec.frame_t_ns(), epoch,
                        {{"objective", static_cast<double>(i)},
                         {"value", v},
                         {"burn", burn}});
      }
    } else if (!over && st.breached) {
      st.breached = false;
      ++recoveries_;
      metrics.counter("slo.recoveries").add();
      if (tracer != nullptr) {
        tracer->instant("slo.recovered", rec.frame_t_ns(), epoch,
                        {{"objective", static_cast<double>(i)},
                         {"value", v},
                         {"burn", burn}});
      }
    }
    rec.record(st.burn_id, burn);
    rec.record(st.breached_id, st.breached ? 1.0 : 0.0);
    any_breached = any_breached || st.breached;
  }
  if (any_breached) {
    ++breach_frames_;
    metrics.counter("slo.breach_samples").add();
  }
}

}  // namespace sb::obs
