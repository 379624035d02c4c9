// Per-(src,dst)-core-type residual tracking of the predictor's forecasts:
// a join count, signed and |residual| EWMAs for throughput and power, and a
// debounced drift flag. The audit recorder feeds it the corrected forecasts
// and exports its state; the online adapter feeds it the raw forecasts,
// derives bias/gain corrections from the signed EWMAs, and resets its RLS
// covariance on rising edges. The flag rises when either |residual| EWMA
// exceeds the threshold after at least `min_joins` joins (the first joins
// after a migration carry cold-start noise), and re-arms once both EWMAs
// fall back to the threshold or below. Both consumers run at the one drift
// contract below, so their detectors fire together.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace sb::obs {

/// EWMA smoothing of the per-(src,dst) residual trackers.
inline constexpr double kResidualAlpha = 0.25;
/// |relative residual| EWMA level that trips the drift detector.
inline constexpr double kDriftThreshold = 0.25;
/// Joins a (src,dst) pair must accumulate before it may trip (debounce).
inline constexpr std::uint64_t kDriftMinJoins = 8;

/// Thread `tid`'s entry in one pass's observations (the join key of a
/// forecast made one pass earlier), or null when it did not report.
template <class Obs>
const Obs* find_thread(const std::vector<Obs>& obs, std::int64_t tid) {
  for (const Obs& o : obs) {
    if (o.tid == tid) return &o;
  }
  return nullptr;
}

/// Signed relative residual err = (observed - predicted) / observed, guarded
/// against tiny observed values (a thread that retired essentially nothing
/// says nothing about the predictor): 0 when |observed| <= 1e-12.
double relative_residual(double observed, double predicted);

class ResidualTracker {
 public:
  struct Pair {
    std::uint64_t joins = 0;
    double ewma_gips = 0;  // |residual| EWMAs drive the drift flag
    double ewma_power = 0;
    double sewma_gips = 0;  // signed EWMAs say which way the predictor leans
    double sewma_power = 0;
    bool active = false;  // drift flag
  };
  using Key = std::pair<std::int32_t, std::int32_t>;  // (src, dst) type

  explicit ResidualTracker(double alpha = kResidualAlpha,
                           double threshold = kDriftThreshold,
                           std::uint64_t min_joins = kDriftMinJoins)
      : alpha_(alpha), threshold_(threshold), min_joins_(min_joins) {}

  /// Folds one joined forecast's residuals into the (src,dst) pair. Returns
  /// true exactly on the drift flag's rising edge.
  bool update(std::int32_t src_type, std::int32_t dst_type, double gips_err,
              double power_err);

  /// The pair's state, or null before its first update.
  const Pair* find(std::int32_t src_type, std::int32_t dst_type) const;
  /// Every tracked pair, in (src,dst) order.
  const std::map<Key, Pair>& pairs() const { return pairs_; }
  /// True while any pair's drift flag is raised.
  bool any_active() const;

 private:
  double alpha_;
  double threshold_;
  std::uint64_t min_joins_;
  std::map<Key, Pair> pairs_;
};

}  // namespace sb::obs
