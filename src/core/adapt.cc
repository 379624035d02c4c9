#include "core/adapt.h"

#include <cmath>
#include <stdexcept>

#include "common/spec.h"

namespace sb::core {
namespace {

/// Tier 1 gain multipliers are clamped to [1/(1+kGainClamp), 1+kGainClamp]:
/// a drifted residual can at most scale a forecast by this factor either
/// way.
constexpr double kGainClamp = 0.5;
/// Tier 2 forgetting factor λ; 1 would be infinite memory (the batch LS
/// limit).
constexpr double kRlsLambda = 0.995;
/// Tier 2 initial covariance scale: P0 = kRlsP0 · I. Keeps a strong prior
/// on the batch-trained Θ (a huge P0 would let the first few — possibly
/// noisy — online samples overwrite the training wholesale).
constexpr double kRlsP0 = 1.0;

double clamp_gain(double g) {
  const double hi = 1.0 + kGainClamp;
  const double lo = 1.0 / hi;
  if (!(g > lo)) return lo;  // also catches NaN / negative denominators
  if (g > hi) return hi;
  return g;
}

}  // namespace

AdaptationConfig AdaptationConfig::parse(const std::string& text) {
  AdaptationConfig cfg;
  for (const std::string_view entry : spec::split(text, ',')) {
    if (entry == "bias") {
      cfg.bias = true;
    } else if (entry == "rls") {
      cfg.rls = true;
    } else if (!entry.empty()) {
      throw std::invalid_argument("--adapt: unknown entry '" +
                                  std::string(entry) + "' (want bias or rls)");
    }
  }
  return cfg;
}

std::string AdaptationConfig::canonical() const {
  if (bias && rls) return "bias,rls";
  return bias ? "bias" : rls ? "rls" : "";
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
    : cfg_(cfg), model_(model) {}

OnlineAdapter::PairState& OnlineAdapter::pair(std::int32_t src_type,
                                              std::int32_t dst_type) {
  PairState& p = pairs_[{src_type, dst_type}];
  // Θ only drives cross-type extrapolation (same-type forecasts are the
  // measured IPC), so same-type pairs never carry an RLS filter.
  if (cfg_.rls && p.rls.empty() && src_type != dst_type) {
    p.rls.emplace_back(kRlsLambda, kRlsP0);
  }
  return p;
}

AdaptPassStats OnlineAdapter::observe(
    const std::vector<obs::JoinedForecast>& joined) {
  AdaptPassStats stats;
  for (const obs::JoinedForecast& j : joined) {
    const obs::Forecast& f = *j.forecast;
    const obs::Observation& o = *j.observed;
    const std::int32_t src = f.obs_src_type;
    if (src < 0) continue;
    PairState& p = pair(src, f.dst_type);
    ++joins_;
    ++stats.joined;

    // Tier 1: signed residuals of the *raw* forecasts (adapting on the
    // corrected ones would compound the correction into itself).
    const bool drift_edge = residuals_.update(
        src, f.dst_type, obs::relative_residual(o.gips, f.raw_gips),
        obs::relative_residual(o.watts, f.raw_watts));
    if (cfg_.bias) {
      const obs::ResidualTracker::Pair& r = *residuals_.find(src, f.dst_type);
      p.gain_gips = clamp_gain(1.0 / (1.0 - r.sewma_gips));
      p.gain_power = clamp_gain(1.0 / (1.0 - r.sewma_power));
    }

    // Tier 2: fold the validated sample into Θ. y is the observed IPC on
    // the destination type; the weight matches the batch trainer.
    // Cross-type only — same-type pairs have no filter (see pair()).
    if (cfg_.rls && !p.rls.empty() && model_ != nullptr &&
        std::isfinite(o.ipc)) {
      std::array<double, kNumFeatures> theta = model_->theta(src, f.dst_type);
      const double w = 1.0 / std::max(o.ipc, 1e-3);
      const std::uint64_t before = p.rls[0].updates();
      p.rls[0].update(f.x, o.ipc, w, theta);
      if (p.rls[0].updates() != before) {
        model_->set_theta(src, f.dst_type, theta);
        ++rls_updates_;
        ++stats.rls_updates;
      }
    }

    // Drift repairs the predictor (covariance reset) rather than
    // escalating to degraded mode.
    if (drift_edge && cfg_.rls && !p.rls.empty()) {
      p.rls[0].reset();
      ++p.cov_resets;
      ++cov_resets_;
      ++stats.cov_resets;
    }
  }
  return stats;
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
