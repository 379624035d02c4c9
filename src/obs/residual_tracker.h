// The balancer's forecast -> observation loop, shared by its two readers.
//
// Each pass the balancer records one Forecast per thread (where it will run
// next and what S/P predict there, corrected and raw) in its ForecastLog.
// One pass later the log validates those rows once against what sensing
// measured, and both readers take the joined rows: the audit recorder
// scores the corrected forecasts, the online adapter repairs the predictor
// from the raw ones. Each reader folds its residuals into its own
// per-(src,dst) core-type ResidualTracker: a join count, signed and
// |residual| EWMAs for throughput and power, and a debounced drift flag.
// The flag rises when either |residual| EWMA exceeds the threshold after at
// least `min_joins` joins (the first joins after a migration carry
// cold-start noise), and re-arms once both EWMAs fall back to the threshold
// or below. Both readers run at the one drift contract below, so their
// detectors fire together.
#pragma once

#include <array>
#include <cstddef>
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

/// Width of the Eq. 8 feature row a forecast carries: the ten Table 4
/// columns (core::kNumFeatures, which core/adapt.h checks against this).
inline constexpr std::size_t kForecastFeatures = 10;

/// What sensing measured for one thread in one pass: the fields of
/// core::ThreadObservation the join and its readers use, without depending
/// on core/.
struct Observation {
  std::int64_t tid = 0;
  std::int32_t core = -1;
  std::int32_t core_type = -1;
  double gips = 0;
  double watts = 0;
  double ipc = 0;
  bool measured = false;
};

/// One thread's forecast for the pass after the one that made it.
struct Forecast {
  std::int64_t tid = 0;
  std::int32_t core = -1;  // predicted core
  /// Type of the core the thread was scheduled on (the audit's pair key).
  std::int32_t src_type = -1;
  /// Type the Eq. 8 row extrapolates from: where sensing measured the
  /// thread, which lags one migration behind the scheduled core while
  /// sensing serves cached rows; -1 when unmeasured (the adapter's pair key).
  std::int32_t obs_src_type = -1;
  std::int32_t dst_type = -1;  // type of the predicted core
  double gips = 0;             // corrected forecast
  double watts = 0;
  /// Pre-adaptation Eq. 8 forecast (== corrected when unadapted).
  double raw_gips = 0;
  double raw_watts = 0;
  /// The Eq. 8 feature row, filled only when the balancer adapts.
  std::array<double, kForecastFeatures> x{};
};

/// A forecast that joined, next to the observation that validated it.
struct JoinedForecast {
  const Forecast* forecast = nullptr;
  const Observation* observed = nullptr;
};

/// Thread `tid`'s entry in one pass's observations, or null when it did not
/// report.
const Observation* find_thread(const std::vector<Observation>& obs,
                               std::int64_t tid);

/// The forecast -> observation bookkeeping, in one place. A pass fills
/// sensed() with what sensing measured, calls join(epoch), lets its readers
/// take observations() and joined(), then open(epoch) consumes those rows
/// and hands back this pass's (empty) rows to fill once it has decided; a
/// degraded pass leaves them empty. A forecast joins only when it was made
/// exactly one pass earlier and its thread was measured on the predicted
/// core, of the predicted type: sensing serves cached pre-migration rows
/// while caches warm, and those would score the wrong core type. A pass
/// that never reaches open() leaves a gap, and the next join joins nothing.
/// Every vector keeps its capacity from pass to pass.
class ForecastLog {
 public:
  /// This pass's observation buffer, cleared (with the join into it).
  std::vector<Observation>& sensed() {
    joined_.clear();
    observed_.clear();
    return observed_;
  }
  /// Joins the rows opened at pass `epoch - 1` against sensed().
  void join(std::uint64_t epoch);
  /// Consumes the joined rows and returns pass `epoch`'s rows, empty.
  std::vector<Forecast>& open(std::uint64_t epoch) {
    joined_.clear();
    rows_.clear();
    made_at_ = epoch;
    return rows_;
  }

  const std::vector<Observation>& observations() const { return observed_; }
  /// The last join, in forecast order; it points into this log.
  const std::vector<JoinedForecast>& joined() const { return joined_; }
  /// Rows the last join consumed, joined or not.
  std::size_t consumed() const { return consumed_; }
  /// True when they were made exactly one pass before the join.
  bool contiguous() const { return contiguous_; }

 private:
  std::vector<Forecast> rows_;
  std::uint64_t made_at_ = 0;
  std::vector<Observation> observed_;
  std::vector<JoinedForecast> joined_;
  std::size_t consumed_ = 0;
  bool contiguous_ = false;
};

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
