// Online predictor adaptation: closing the drift loop (§4, Eq. 8).
//
// PR 5's audit recorder *scores* the Θ characterization against what the
// sensing layer later measures; this layer uses the same residual stream to
// *repair* the predictor online, in two tiers:
//
//   tier 1 (bias/gain)  A per-(src,dst)-core-type multiplicative correction
//                       derived from the signed relative-residual EWMA.
//                       With err = (obs - pred) / obs, obs ≈ pred / (1 - r̄),
//                       so the corrector multiplies every GIPS / power
//                       forecast by clamp(1 / (1 - r̄)). Same-type pairs are
//                       corrected too: their forecasts bypass Θ but still
//                       drift against biased sensing (e.g. a noisy power
//                       rail). Nearly free: one multiply per S/P cell.
//   tier 2 (RLS)        A recursive-least-squares update of the Θ
//                       coefficients themselves over the Eq. 8 feature
//                       vector, with forgetting factor λ and
//                       covariance-reset-on-drift: every rising edge of
//                       the debounced drift signal (the audit recorder's
//                       detector, at the drift constants of
//                       obs/residual_tracker.h) re-inflates the RLS
//                       covariance to P0 · I, so the filter forgets a stale
//                       regime at once instead of over 1/(1-λ) epochs,
//                       *instead of* escalating to degraded mode.
//
// The adapter reads the rows of the balancer's one forecast join
// (obs::ForecastLog), the same rows the audit recorder reads, and keeps its
// own obs::ResidualTracker over the raw forecasts, so adaptation works —
// and behaves identically — whether or not the audit recorder is attached.
// Everything is a pure function of sim state: no host clocks, no RNG,
// fixed-sized double arithmetic only, so adapted runs stay bit-identical
// across --jobs=1/8. Adaptation defaults off; all goldens are untouched
// unless a config opts in. Each tier is one switch: the gain clamp, λ and
// P0 are constants in adapt.cc.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/features.h"
#include "core/predictor.h"
#include "obs/residual_tracker.h"

namespace sb::core {

static_assert(kNumFeatures == obs::kForecastFeatures);

/// `SmartBalanceConfig::Adaptation`. Parsed from the CLI/config grammar:
/// comma-separated entries, each `bias` (enable tier 1) or `rls` (enable
/// tier 2); empty entries are skipped, so an empty string disables both.
/// Any other entry raises std::invalid_argument (the only exception parse
/// may throw).
struct AdaptationConfig {
  /// Tier 1: per-(src,dst) bias/gain post-multiplier on Eq. 8 forecasts.
  bool bias = false;
  /// Tier 2: recursive-least-squares update of Θ over the Eq. 8 features.
  bool rls = false;

  bool enabled() const { return bias || rls; }

  static AdaptationConfig parse(const std::string& text);
  /// The spec that parse() reads back to this config.
  std::string canonical() const;

  bool operator==(const AdaptationConfig&) const = default;
};

/// The RLS core, exposed standalone so the property tests can drive it
/// directly: with λ = 1 and P0 = I/ridge it reproduces the batch ridge
/// least squares of trainer.cc exactly; with λ < 1 it tracks drifting
/// coefficients. The caller owns Θ (it lives in PredictorModel); the
/// filter owns only the covariance.
class RlsFilter {
 public:
  RlsFilter(double lambda, double p0);

  /// P = p0 · I (initial state, and the covariance-reset-on-drift action).
  void reset();

  /// One weighted sample: x is the Eq. 8 feature row, y the observed IPC,
  /// w the row weight (the trainer's 1/max(y, 1e-3) convention). Updates
  /// theta in place. Non-finite inputs are ignored.
  void update(const std::array<double, kNumFeatures>& x, double y, double w,
              std::array<double, kNumFeatures>& theta);

  /// Row-major kNumFeatures × kNumFeatures covariance (tests assert it
  /// stays symmetric positive-definite).
  const std::array<double, kNumFeatures * kNumFeatures>& covariance() const {
    return p_;
  }
  std::uint64_t updates() const { return updates_; }

 private:
  double lambda_;
  double p0_;
  std::array<double, kNumFeatures * kNumFeatures> p_{};
  std::uint64_t updates_ = 0;
};

/// Per-pass adaptation accounting (feeds the predictor.adapt.* counters).
struct AdaptPassStats {
  int joined = 0;       // forecasts validated against this pass's sensing
  int rls_updates = 0;  // RLS samples absorbed into Θ
  int cov_resets = 0;   // covariance re-inflations (drift rising edges)
};

/// Final state of one (src,dst) corrector, for introspection and the
/// report's "audit" block.
struct AdaptPairState {
  std::int32_t src_type = -1;
  std::int32_t dst_type = -1;
  std::uint64_t joins = 0;
  double gain_gips = 1.0;
  double gain_power = 1.0;
  double ewma_gips = 0;  // signed relative residual EWMA (raw forecasts)
  double ewma_power = 0;
  std::uint64_t cov_resets = 0;
};

class OnlineAdapter {
 public:
  /// `model` outlives the adapter; tier 2 rewrites its Θ rows in place.
  OnlineAdapter(const AdaptationConfig& cfg, PredictorModel* model);

  const AdaptationConfig& config() const { return cfg_; }

  /// Phase A of every pass, right after sensing: reads the pass's joined
  /// forecasts, keyed on the type each was extrapolated from (rows of an
  /// unmeasured thread are skipped; same-type pairs count, tier 1 corrects
  /// them and tier 2 ignores them). Advances the signed EWMAs of the *raw*
  /// forecasts' residuals (tier 1 gains), absorbs RLS samples over each
  /// row's Eq. 8 features (tier 2) and runs the drift detector /
  /// covariance resets.
  AdaptPassStats observe(const std::vector<obs::JoinedForecast>& joined);

  /// Tier 1 post-multipliers for a forecast; exactly 1.0 when bias
  /// correction is off or the pair is unseen.
  double gips_multiplier(std::int32_t src_type, std::int32_t dst_type) const;
  double power_multiplier(std::int32_t src_type, std::int32_t dst_type) const;

  // --- Introspection ----------------------------------------------------
  std::uint64_t joins() const { return joins_; }
  std::uint64_t rls_updates() const { return rls_updates_; }
  std::uint64_t cov_resets() const { return cov_resets_; }
  std::vector<AdaptPairState> pair_states() const;
  /// Tier 2 filter for a pair (null when RLS is off or the pair is unseen).
  const RlsFilter* rls_filter(std::int32_t src_type,
                              std::int32_t dst_type) const;

 private:
  /// What the adapter keeps per pair beside the residual tracker's state.
  struct PairState {
    double gain_gips = 1.0;
    double gain_power = 1.0;
    std::uint64_t cov_resets = 0;
    std::vector<RlsFilter> rls;  // 0 or 1 filters (RLS off/on)
  };

  PairState& pair(std::int32_t src_type, std::int32_t dst_type);

  AdaptationConfig cfg_;
  PredictorModel* model_;
  obs::ResidualTracker residuals_;  // on the raw forecasts' residuals
  std::map<std::pair<std::int32_t, std::int32_t>, PairState> pairs_;
  std::uint64_t joins_ = 0;
  std::uint64_t rls_updates_ = 0;
  std::uint64_t cov_resets_ = 0;
};

}  // namespace sb::core
