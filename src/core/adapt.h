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
// The adapter keeps its own one-epoch-later forecast→observation join (the
// same validity rules as obs::AuditRecorder) and its own obs::ResidualTracker
// over the raw forecasts, so adaptation works — and behaves identically —
// whether or not the observability audit recorder is attached. Everything
// is a pure function of sim state: no host clocks, no RNG, fixed-sized
// double arithmetic only, so adapted runs stay bit-identical across
// --jobs=1/8. Adaptation defaults off; all goldens are untouched unless a
// config opts in. Each tier is one switch: the gain clamp, λ and P0 are
// constants in adapt.cc.
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

  /// Phase A of every pass, right after sensing: joins the forecasts
  /// registered last pass against this pass's observations, advances the
  /// signed residual EWMAs (tier 1 gains), absorbs RLS samples (tier 2)
  /// and runs the drift detector / covariance resets. Join validity
  /// mirrors the audit recorder: measured, on the predicted core, of the
  /// predicted type, exactly one epoch later.
  AdaptPassStats observe(std::uint64_t epoch,
                         const std::vector<ThreadObservation>& obs);

  /// Phase B: open this pass's forecast set (clears any unconsumed one).
  void begin_forecasts(std::uint64_t epoch);
  /// Phase B: one *raw* (pre-correction) forecast per thread (same-type
  /// pairs included — tier 1 corrects them, tier 2 ignores them). `x` is
  /// the Eq. 8 feature row the forecast was computed from.
  void add_forecast(std::int64_t tid, std::int32_t core, std::int32_t src_type,
                    std::int32_t dst_type, double raw_gips, double raw_w,
                    const std::array<double, kNumFeatures>& x);

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
  struct Pending {
    std::int64_t tid = 0;
    std::int32_t core = -1;
    std::int32_t src_type = -1;
    std::int32_t dst_type = -1;
    double raw_gips = 0;
    double raw_w = 0;
    std::array<double, kNumFeatures> x{};
  };

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
  std::vector<Pending> pending_;
  std::uint64_t pending_epoch_ = 0;
  bool pending_valid_ = false;
  std::uint64_t joins_ = 0;
  std::uint64_t rls_updates_ = 0;
  std::uint64_t cov_resets_ = 0;
};

}  // namespace sb::core
