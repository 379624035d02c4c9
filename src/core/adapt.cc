#include "core/adapt.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

namespace sb::core {
namespace {

/// std::stod/std::stoi throw std::out_of_range (not std::invalid_argument)
/// on out-of-range values, so numeric fields go through these wrappers to
/// keep parse()'s documented contract (mirrors fault_plan.cc).
double parse_double(const std::string& s, const std::string& entry,
                    const char* what) {
  std::size_t pos = 0;
  double v = 0.0;
  try {
    v = std::stod(s, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("Adaptation: bad " + std::string(what) +
                                " in '" + entry + "'");
  }
  if (pos != s.size()) {
    throw std::invalid_argument("Adaptation: bad " + std::string(what) +
                                " in '" + entry + "'");
  }
  return v;
}

long long parse_ll(const std::string& s, const std::string& entry,
                   const char* what) {
  std::size_t pos = 0;
  long long v = 0;
  try {
    v = std::stoll(s, &pos);
  } catch (const std::exception&) {
    throw std::invalid_argument("Adaptation: bad " + std::string(what) +
                                " in '" + entry + "'");
  }
  if (pos != s.size()) {
    throw std::invalid_argument("Adaptation: bad " + std::string(what) +
                                " in '" + entry + "'");
  }
  return v;
}

std::vector<std::string> split(const std::string& s, char sep) {
  std::vector<std::string> parts;
  std::string cur;
  for (char c : s) {
    if (c == sep) {
      parts.push_back(cur);
      cur.clear();
    } else {
      cur += c;
    }
  }
  parts.push_back(cur);
  return parts;
}

void parse_entry(const std::string& entry, AdaptationConfig* cfg) {
  const std::vector<std::string> parts = split(entry, ':');
  const std::string& key = parts[0];
  if (key == "bias") {
    if (parts.size() > 3) {
      throw std::invalid_argument("Adaptation: malformed entry '" + entry +
                                  "' (want bias[:alpha[:clamp]])");
    }
    cfg->bias = true;
    if (parts.size() >= 2) {
      cfg->bias_alpha = parse_double(parts[1], entry, "alpha");
      if (!(cfg->bias_alpha > 0.0) || cfg->bias_alpha > 1.0) {
        throw std::invalid_argument("Adaptation: bad alpha in '" + entry +
                                    "'");
      }
    }
    if (parts.size() == 3) {
      cfg->gain_clamp = parse_double(parts[2], entry, "clamp");
      if (!(cfg->gain_clamp >= 0.0) || cfg->gain_clamp > 4.0) {
        throw std::invalid_argument("Adaptation: bad clamp in '" + entry +
                                    "'");
      }
    }
  } else if (key == "rls") {
    if (parts.size() > 4) {
      throw std::invalid_argument("Adaptation: malformed entry '" + entry +
                                  "' (want rls[:lambda[:p0[:reset]]])");
    }
    cfg->rls = true;
    if (parts.size() >= 2) {
      cfg->rls_lambda = parse_double(parts[1], entry, "lambda");
      if (!(cfg->rls_lambda >= 0.5) || cfg->rls_lambda > 1.0) {
        throw std::invalid_argument("Adaptation: bad lambda in '" + entry +
                                    "'");
      }
    }
    if (parts.size() >= 3) {
      cfg->rls_p0 = parse_double(parts[2], entry, "p0");
      if (!(cfg->rls_p0 > 0.0) || cfg->rls_p0 > 1e12) {
        throw std::invalid_argument("Adaptation: bad p0 in '" + entry + "'");
      }
    }
    if (parts.size() == 4) {
      const long long reset = parse_ll(parts[3], entry, "reset");
      if (reset != 0 && reset != 1) {
        throw std::invalid_argument("Adaptation: bad reset in '" + entry +
                                    "'");
      }
      cfg->rls_reset_on_drift = reset == 1;
    }
  } else if (key == "drift") {
    if (parts.size() < 2 || parts.size() > 3) {
      throw std::invalid_argument("Adaptation: malformed entry '" + entry +
                                  "' (want drift:threshold[:min_joins])");
    }
    cfg->drift_threshold = parse_double(parts[1], entry, "threshold");
    if (!(cfg->drift_threshold > 0.0) || cfg->drift_threshold > 100.0) {
      throw std::invalid_argument("Adaptation: bad threshold in '" + entry +
                                  "'");
    }
    if (parts.size() == 3) {
      const long long joins = parse_ll(parts[2], entry, "min_joins");
      if (joins < 1 || joins > 1000000) {
        throw std::invalid_argument("Adaptation: bad min_joins in '" + entry +
                                    "'");
      }
      cfg->drift_min_joins = static_cast<std::uint64_t>(joins);
    }
  } else {
    throw std::invalid_argument("Adaptation: unknown entry '" + entry + "'");
  }
}

void append_value(std::ostream& os, double v) { os << v; }

}  // namespace

AdaptationConfig AdaptationConfig::parse(const std::string& text) {
  AdaptationConfig cfg;
  std::string entry;
  std::istringstream is(text);
  while (std::getline(is, entry, ',')) {
    if (entry.empty()) continue;
    parse_entry(entry, &cfg);
  }
  return cfg;
}

std::string AdaptationConfig::to_string() const {
  std::ostringstream os;
  bool first = true;
  const auto sep = [&] {
    if (!first) os << ',';
    first = false;
  };
  if (bias) {
    sep();
    os << "bias:";
    append_value(os, bias_alpha);
    os << ':';
    append_value(os, gain_clamp);
  }
  if (rls) {
    sep();
    os << "rls:";
    append_value(os, rls_lambda);
    os << ':';
    append_value(os, rls_p0);
    os << ':' << (rls_reset_on_drift ? 1 : 0);
  }
  const AdaptationConfig defaults;
  if (drift_threshold != defaults.drift_threshold ||
      drift_min_joins != defaults.drift_min_joins) {
    sep();
    os << "drift:";
    append_value(os, drift_threshold);
    os << ':' << drift_min_joins;
  }
  return os.str();
}

bool AdaptationConfig::operator==(const AdaptationConfig& o) const {
  return bias == o.bias && bias_alpha == o.bias_alpha &&
         gain_clamp == o.gain_clamp && rls == o.rls &&
         rls_lambda == o.rls_lambda && rls_p0 == o.rls_p0 &&
         rls_reset_on_drift == o.rls_reset_on_drift &&
         drift_threshold == o.drift_threshold &&
         drift_min_joins == o.drift_min_joins;
}

// ---------------------------------------------------------------------------
// RlsFilter
// ---------------------------------------------------------------------------

RlsFilter::RlsFilter(double lambda, double p0) : lambda_(lambda), p0_(p0) {
  reset();
}

void RlsFilter::reset() {
  p_.fill(0.0);
  for (std::size_t i = 0; i < kNumFeatures; ++i) {
    p_[i * kNumFeatures + i] = p0_;
  }
}

void RlsFilter::update(const std::array<double, kNumFeatures>& x, double y,
                       double w, std::array<double, kNumFeatures>& theta) {
  if (!std::isfinite(y) || !std::isfinite(w) || w <= 0.0) return;
  // The batch trainer weights rows as x' = w·x, y' = w·y; folding the same
  // scaling in here makes λ = 1 RLS bit-for-bit the recursive form of its
  // weighted ridge normal equations.
  std::array<double, kNumFeatures> xw;
  for (std::size_t i = 0; i < kNumFeatures; ++i) {
    const double v = w * x[i];
    if (!std::isfinite(v)) return;
    xw[i] = v;
  }
  const double yw = w * y;

  // v = P x'
  std::array<double, kNumFeatures> v;
  for (std::size_t i = 0; i < kNumFeatures; ++i) {
    double s = 0.0;
    for (std::size_t j = 0; j < kNumFeatures; ++j) {
      s += p_[i * kNumFeatures + j] * xw[j];
    }
    v[i] = s;
  }
  double denom = lambda_;
  for (std::size_t i = 0; i < kNumFeatures; ++i) denom += xw[i] * v[i];
  if (!(denom > 0.0) || !std::isfinite(denom)) return;

  // Gain, innovation, coefficient update.
  double innov = yw;
  for (std::size_t i = 0; i < kNumFeatures; ++i) innov -= theta[i] * xw[i];
  for (std::size_t i = 0; i < kNumFeatures; ++i) {
    theta[i] += (v[i] / denom) * innov;
  }

  // P = (P - k vᵀ) / λ with k = v/denom, then explicit symmetrization: the
  // rank-1 downdate is symmetric in exact arithmetic but drifts in floating
  // point, and the SPD invariant is what the property tests pin.
  for (std::size_t i = 0; i < kNumFeatures; ++i) {
    const double ki = v[i] / denom;
    for (std::size_t j = 0; j < kNumFeatures; ++j) {
      p_[i * kNumFeatures + j] =
          (p_[i * kNumFeatures + j] - ki * v[j]) / lambda_;
    }
  }
  for (std::size_t i = 0; i < kNumFeatures; ++i) {
    for (std::size_t j = i + 1; j < kNumFeatures; ++j) {
      const double m =
          0.5 * (p_[i * kNumFeatures + j] + p_[j * kNumFeatures + i]);
      p_[i * kNumFeatures + j] = m;
      p_[j * kNumFeatures + i] = m;
    }
  }
  ++updates_;
}

// ---------------------------------------------------------------------------
// OnlineAdapter
// ---------------------------------------------------------------------------

OnlineAdapter::OnlineAdapter(const AdaptationConfig& cfg, PredictorModel* model)
    : cfg_(cfg),
      model_(model),
      residuals_(cfg.bias_alpha, cfg.drift_threshold, cfg.drift_min_joins) {}

OnlineAdapter::PairState& OnlineAdapter::pair(std::int32_t src_type,
                                              std::int32_t dst_type) {
  PairState& p = pairs_[{src_type, dst_type}];
  // Θ only drives cross-type extrapolation (same-type forecasts are the
  // measured IPC), so same-type pairs never carry an RLS filter.
  if (cfg_.rls && p.rls.empty() && src_type != dst_type) {
    p.rls.emplace_back(cfg_.rls_lambda, cfg_.rls_p0);
  }
  return p;
}

double OnlineAdapter::clamp_gain(double g) const {
  const double hi = 1.0 + cfg_.gain_clamp;
  const double lo = 1.0 / hi;
  if (!(g > lo)) return lo;  // also catches NaN / negative denominators
  if (g > hi) return hi;
  return g;
}

AdaptPassStats OnlineAdapter::observe(
    std::uint64_t epoch, const std::vector<ThreadObservation>& obs) {
  AdaptPassStats stats;
  const bool contiguous = pending_valid_ && epoch == pending_epoch_ + 1;
  if (contiguous) {
    for (const Pending& f : pending_) {
      const ThreadObservation* match = obs::find_thread(obs, f.tid);
      // Same validity rules as the audit join: the thread must really have
      // run (measured) on the predicted core of the predicted type.
      if (match == nullptr || !match->measured || match->core != f.core ||
          match->core_type != f.dst_type) {
        continue;
      }
      PairState& p = pair(f.src_type, f.dst_type);
      ++joins_;
      ++stats.joined;

      // Tier 1: signed residuals of the *raw* forecasts (adapting on the
      // corrected ones would compound the correction into itself).
      const bool drift_edge = residuals_.update(
          f.src_type, f.dst_type,
          obs::relative_residual(match->ips / 1e9, f.raw_gips),
          obs::relative_residual(match->power_w, f.raw_w));
      if (cfg_.bias) {
        const obs::ResidualTracker::Pair& r =
            *residuals_.find(f.src_type, f.dst_type);
        p.gain_gips = clamp_gain(1.0 / (1.0 - r.sewma_gips));
        p.gain_power = clamp_gain(1.0 / (1.0 - r.sewma_power));
      }

      // Tier 2: fold the validated sample into Θ. y is the observed IPC on
      // the destination type; the weight matches the batch trainer.
      // Cross-type only — same-type pairs have no filter (see pair()).
      if (cfg_.rls && !p.rls.empty() && model_ != nullptr &&
          std::isfinite(match->ipc)) {
        std::array<double, kNumFeatures> theta =
            model_->theta(f.src_type, f.dst_type);
        const double w = 1.0 / std::max(match->ipc, 1e-3);
        const std::uint64_t before = p.rls[0].updates();
        p.rls[0].update(f.x, match->ipc, w, theta);
        if (p.rls[0].updates() != before) {
          model_->set_theta(f.src_type, f.dst_type, theta);
          ++rls_updates_;
          ++stats.rls_updates;
        }
      }

      // Drift repairs the predictor (covariance reset) rather than
      // escalating to degraded mode.
      if (drift_edge && cfg_.rls && cfg_.rls_reset_on_drift &&
          !p.rls.empty()) {
        p.rls[0].reset();
        ++p.cov_resets;
        ++cov_resets_;
        ++stats.cov_resets;
      }
    }
  }
  pending_.clear();
  pending_valid_ = false;
  return stats;
}

void OnlineAdapter::begin_forecasts(std::uint64_t epoch) {
  pending_.clear();
  pending_epoch_ = epoch;
  pending_valid_ = true;
}

void OnlineAdapter::add_forecast(std::int64_t tid, std::int32_t core,
                                 std::int32_t src_type, std::int32_t dst_type,
                                 double raw_gips, double raw_w,
                                 const std::array<double, kNumFeatures>& x) {
  if (!pending_valid_) return;
  if (src_type < 0 || dst_type < 0) return;
  Pending f;
  f.tid = tid;
  f.core = core;
  f.src_type = src_type;
  f.dst_type = dst_type;
  f.raw_gips = raw_gips;
  f.raw_w = raw_w;
  f.x = x;
  pending_.push_back(f);
}

double OnlineAdapter::gips_multiplier(std::int32_t src_type,
                                      std::int32_t dst_type) const {
  if (!cfg_.bias || src_type < 0 || dst_type < 0) return 1.0;
  const auto it = pairs_.find({src_type, dst_type});
  return it == pairs_.end() ? 1.0 : it->second.gain_gips;
}

double OnlineAdapter::power_multiplier(std::int32_t src_type,
                                       std::int32_t dst_type) const {
  if (!cfg_.bias || src_type < 0 || dst_type < 0) return 1.0;
  const auto it = pairs_.find({src_type, dst_type});
  return it == pairs_.end() ? 1.0 : it->second.gain_power;
}

std::vector<AdaptPairState> OnlineAdapter::pair_states() const {
  std::vector<AdaptPairState> out;
  out.reserve(pairs_.size());
  for (const auto& [key, p] : pairs_) {
    const obs::ResidualTracker::Pair& r =
        *residuals_.find(key.first, key.second);
    AdaptPairState st;
    st.src_type = key.first;
    st.dst_type = key.second;
    st.joins = r.joins;
    st.gain_gips = p.gain_gips;
    st.gain_power = p.gain_power;
    st.ewma_gips = r.sewma_gips;
    st.ewma_power = r.sewma_power;
    st.cov_resets = p.cov_resets;
    out.push_back(st);
  }
  return out;
}

const RlsFilter* OnlineAdapter::rls_filter(std::int32_t src_type,
                                           std::int32_t dst_type) const {
  const auto it = pairs_.find({src_type, dst_type});
  if (it == pairs_.end() || it->second.rls.empty()) return nullptr;
  return &it->second.rls[0];
}

}  // namespace sb::core
