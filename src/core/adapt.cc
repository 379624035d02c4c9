#include "core/adapt.h"

#include <cmath>
#include <stdexcept>

#include "common/spec.h"

namespace sb::core {
namespace {

// Fields after each entry's key; defaults match AdaptationConfig.
constexpr spec::Field kBias[] = {
    {"alpha", spec::Kind::kReal, 0, 1, 0.25, spec::Range::kOpenLow},
    {"clamp", spec::Kind::kReal, 0, 4, 0.5},
};
constexpr spec::Field kRls[] = {
    {"lambda", spec::Kind::kReal, 0.5, 1, 0.995},
    {"p0", spec::Kind::kReal, 0, 1e12, 1, spec::Range::kOpenLow},
    {"reset", spec::Kind::kInt, 0, 1, 1},
};
constexpr spec::Field kDrift[] = {
    {"threshold", spec::Kind::kReal, 0, 100, spec::kRequired,
     spec::Range::kOpenLow},
    {"min_joins", spec::Kind::kInt, 1, 1'000'000, 8},
};

/// Applies one entry; fields it omits keep their current value.
void parse_entry(std::string_view entry, AdaptationConfig* cfg) {
  const auto tokens = spec::split(entry, ':');
  const std::string_view key = tokens[0];
  const std::span<const std::string_view> fields(tokens.begin() + 1,
                                                 tokens.end());
  if (key == "bias") {
    double v[] = {cfg->bias_alpha, cfg->gain_clamp};
    spec::read_fields("--adapt bias", kBias, fields, v);
    cfg->bias = true;
    cfg->bias_alpha = v[0];
    cfg->gain_clamp = v[1];
  } else if (key == "rls") {
    double v[] = {cfg->rls_lambda, cfg->rls_p0,
                  cfg->rls_reset_on_drift ? 1.0 : 0.0};
    spec::read_fields("--adapt rls", kRls, fields, v);
    cfg->rls = true;
    cfg->rls_lambda = v[0];
    cfg->rls_p0 = v[1];
    cfg->rls_reset_on_drift = v[2] == 1;
  } else if (key == "drift") {
    double v[] = {cfg->drift_threshold,
                  static_cast<double>(cfg->drift_min_joins)};
    spec::read_fields("--adapt drift", kDrift, fields, v);
    cfg->drift_threshold = v[0];
    cfg->drift_min_joins = static_cast<std::uint64_t>(v[1]);
  } else {
    throw std::invalid_argument("--adapt: unknown entry '" +
                                std::string(entry) +
                                "' (want bias, rls or drift)");
  }
}

void append_entry(std::string& out, std::string_view key,
                  std::span<const spec::Field> fields,
                  std::initializer_list<double> values) {
  if (!out.empty()) out += ',';
  out += key;
  std::string tail;
  spec::append_fields(tail, fields, values);
  if (!tail.empty()) (out += ':') += tail;
}

}  // namespace

AdaptationConfig AdaptationConfig::parse(const std::string& text) {
  AdaptationConfig cfg;
  for (const std::string_view entry : spec::split(text, ',')) {
    if (!entry.empty()) parse_entry(entry, &cfg);
  }
  return cfg;
}

std::string AdaptationConfig::canonical() const {
  std::string out;
  if (bias) append_entry(out, "bias", kBias, {bias_alpha, gain_clamp});
  if (rls) {
    append_entry(out, "rls", kRls,
                 {rls_lambda, rls_p0, rls_reset_on_drift ? 1.0 : 0.0});
  }
  const AdaptationConfig defaults;
  if (drift_threshold != defaults.drift_threshold ||
      drift_min_joins != defaults.drift_min_joins) {
    append_entry(out, "drift", kDrift,
                 {drift_threshold, static_cast<double>(drift_min_joins)});
  }
  return out;
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
