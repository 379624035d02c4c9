// Property tests for the online adaptation layer (core/adapt.h):
//   * RLS with λ = 1 and P0 = I/ridge reproduces the batch ridge least
//     squares of trainer.cc / common/matrix.cc within tolerance;
//   * the RLS covariance stays symmetric positive-definite under 10k
//     seeded random updates (the invariant the explicit symmetrization in
//     adapt.cc exists to protect);
//   * the bias/gain correction is exactly identity at zero residual EWMAs;
//   * the adaptation config grammar round-trips and rejects bad entries.
#include "core/adapt.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <utility>
#include <vector>

#include "common/matrix.h"
#include "core/features.h"
#include "core/predictor.h"

namespace sb::core {
namespace {

/// SplitMix64, same stream as the fuzz harnesses: deterministic synthetic
/// data without touching the simulator's seeded RNG conventions.
class Stream {
 public:
  explicit Stream(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

 private:
  std::uint64_t state_;
};

std::array<double, kNumFeatures> random_features(Stream& s) {
  // Shaped like real Eq. 8 rows: a frequency ratio near 1, miss ratios and
  // instruction shares in [0, 1), an IPC in a plausible band, and the
  // constant-1 intercept column.
  std::array<double, kNumFeatures> x{};
  x[0] = s.uniform(0.4, 2.5);                          // freq ratio
  for (std::size_t k = 1; k < 8; ++k) x[k] = s.uniform();  // ratios/shares
  x[8] = s.uniform(0.1, 4.0);                          // measured ipc
  x[9] = 1.0;                                          // intercept
  return x;
}

TEST(RlsFilter, LambdaOneMatchesBatchRidgeLeastSquares) {
  // y = θ*·x + small noise, weighted exactly like trainer.cc's Θ
  // regression (w = 1/max(y, 1e-3)); with λ = 1 and P0 = I/ridge the
  // recursive solution IS the batch ridge solution of the same rows.
  const double ridge = 1e-6;
  const std::array<double, kNumFeatures> truth = {
      0.35, -0.2, -0.45, 0.1, 0.22, -0.3, -0.05, -0.08, 0.6, 0.15};
  Stream s(0xad457ULL);
  const std::size_t rows = 400;

  Matrix a(rows, kNumFeatures);
  std::vector<double> b(rows);
  RlsFilter rls(/*lambda=*/1.0, /*p0=*/1.0 / ridge);
  std::array<double, kNumFeatures> theta{};  // batch also starts from zero

  std::vector<std::array<double, kNumFeatures>> xs;
  std::vector<double> ys, ws;
  for (std::size_t r = 0; r < rows; ++r) {
    const auto x = random_features(s);
    double y = 0;
    for (std::size_t k = 0; k < kNumFeatures; ++k) y += truth[k] * x[k];
    y += s.uniform(-0.02, 0.02);
    y = std::max(y, 0.05);  // IPC-like: positive
    const double w = 1.0 / std::max(y, 1e-3);
    for (std::size_t k = 0; k < kNumFeatures; ++k) a.at(r, k) = w * x[k];
    b[r] = w * y;
    xs.push_back(x);
    ys.push_back(y);
    ws.push_back(w);
  }

  const std::vector<double> batch = least_squares(a, b, ridge);
  for (std::size_t r = 0; r < rows; ++r) {
    rls.update(xs[r], ys[r], ws[r], theta);
  }
  EXPECT_EQ(rls.updates(), rows);

  for (std::size_t k = 0; k < kNumFeatures; ++k) {
    EXPECT_NEAR(theta[k], batch[k], 1e-5)
        << "coefficient " << k << " diverged from batch LS";
  }
}

TEST(RlsFilter, LambdaOneRecoversTrueCoefficientsOnNoiselessData) {
  const std::array<double, kNumFeatures> truth = {
      0.5, -0.1, -0.3, 0.05, 0.2, -0.25, 0.0, -0.04, 0.7, 0.1};
  Stream s(0x5eedULL);
  RlsFilter rls(1.0, 1e8);
  std::array<double, kNumFeatures> theta{};
  for (int r = 0; r < 300; ++r) {
    const auto x = random_features(s);
    double y = 0;
    for (std::size_t k = 0; k < kNumFeatures; ++k) y += truth[k] * x[k];
    rls.update(x, y, 1.0, theta);
  }
  for (std::size_t k = 0; k < kNumFeatures; ++k) {
    EXPECT_NEAR(theta[k], truth[k], 1e-4);
  }
}

/// Cholesky factorization succeeds iff the matrix is (numerically)
/// symmetric positive-definite.
bool is_spd(const std::array<double, kNumFeatures * kNumFeatures>& p) {
  constexpr std::size_t n = kNumFeatures;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (p[i * n + j] != p[j * n + i]) return false;  // exact symmetry
    }
  }
  std::array<double, n * n> l{};
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      double sum = p[i * n + j];
      for (std::size_t k = 0; k < j; ++k) sum -= l[i * n + k] * l[j * n + k];
      if (i == j) {
        if (!(sum > 0.0) || !std::isfinite(sum)) return false;
        l[i * n + i] = std::sqrt(sum);
      } else {
        l[i * n + j] = sum / l[j * n + j];
      }
    }
  }
  return true;
}

TEST(RlsFilter, CovarianceStaysSymmetricPositiveDefinite) {
  // 10k seeded random updates with forgetting (the hard case: λ < 1
  // re-inflates P every step, amplifying any asymmetry drift).
  Stream s(0xc0eba5eULL);
  RlsFilter rls(0.97, 100.0);
  std::array<double, kNumFeatures> theta{};
  ASSERT_TRUE(is_spd(rls.covariance()));
  for (int r = 0; r < 10'000; ++r) {
    const auto x = random_features(s);
    const double y = s.uniform(0.05, 4.0);
    const double w = 1.0 / std::max(y, 1e-3);
    rls.update(x, y, w, theta);
    ASSERT_TRUE(is_spd(rls.covariance())) << "lost SPD at update " << r;
    for (std::size_t k = 0; k < kNumFeatures; ++k) {
      ASSERT_TRUE(std::isfinite(theta[k])) << "theta diverged at " << r;
    }
  }
  EXPECT_EQ(rls.updates(), 10'000u);
}

TEST(RlsFilter, ResetRestoresInitialCovariance) {
  Stream s(0x7e5e7ULL);
  RlsFilter rls(0.99, 42.0);
  std::array<double, kNumFeatures> theta{};
  for (int r = 0; r < 50; ++r) {
    rls.update(random_features(s), s.uniform(0.1, 2.0), 1.0, theta);
  }
  rls.reset();
  const auto& p = rls.covariance();
  for (std::size_t i = 0; i < kNumFeatures; ++i) {
    for (std::size_t j = 0; j < kNumFeatures; ++j) {
      EXPECT_EQ(p[i * kNumFeatures + j], i == j ? 42.0 : 0.0);
    }
  }
}

TEST(RlsFilter, IgnoresNonFiniteAndNonPositiveWeightSamples) {
  RlsFilter rls(1.0, 10.0);
  std::array<double, kNumFeatures> theta{};
  std::array<double, kNumFeatures> x{};
  x.fill(1.0);
  rls.update(x, std::nan(""), 1.0, theta);
  rls.update(x, 1.0, 0.0, theta);
  rls.update(x, 1.0, -2.0, theta);
  std::array<double, kNumFeatures> bad = x;
  bad[3] = std::numeric_limits<double>::infinity();
  rls.update(bad, 1.0, 1.0, theta);
  EXPECT_EQ(rls.updates(), 0u);
  for (double t : theta) EXPECT_EQ(t, 0.0);
}

// ---------------------------------------------------------------------------
// OnlineAdapter: joins, identity, gains, drift reset
// ---------------------------------------------------------------------------

ThreadObservation make_obs(ThreadId tid, CoreId core, CoreTypeId type,
                           double ips, double watts) {
  ThreadObservation o;
  o.tid = tid;
  o.core = core;
  o.core_type = type;
  o.ips = ips;
  o.ipc = 1.0;
  o.power_w = watts;
  o.measured = true;
  return o;
}

TEST(OnlineAdapter, BiasGainIsIdentityAtZeroResidualEwmas) {
  AdaptationConfig cfg = AdaptationConfig::parse("bias");
  OnlineAdapter adapter(cfg, nullptr);

  // Unseen pairs: exactly 1.0, not approximately.
  EXPECT_EQ(adapter.gips_multiplier(0, 1), 1.0);
  EXPECT_EQ(adapter.power_multiplier(0, 1), 1.0);

  // A perfectly-predicted join drives the residuals (and EWMAs) to exactly
  // zero, so the gains must stay exactly 1.
  adapter.begin_forecasts(1);
  std::array<double, kNumFeatures> x{};
  adapter.add_forecast(7, 2, 0, 1, /*raw_gips=*/1.5, /*raw_w=*/0.8, x);
  const AdaptPassStats stats =
      adapter.observe(2, {make_obs(7, 2, 1, 1.5e9, 0.8)});
  EXPECT_EQ(stats.joined, 1);
  EXPECT_EQ(adapter.gips_multiplier(0, 1), 1.0);
  EXPECT_EQ(adapter.power_multiplier(0, 1), 1.0);
}

TEST(OnlineAdapter, GainTracksBiasAndRespectsClamp) {
  AdaptationConfig cfg = AdaptationConfig::parse("bias");
  OnlineAdapter adapter(cfg, nullptr);
  std::array<double, kNumFeatures> x{};
  std::uint64_t pass = 1;
  auto join = [&](double raw, double observed) {
    adapter.begin_forecasts(pass);
    adapter.add_forecast(1, 0, 0, 1, raw, raw, x);
    adapter.observe(++pass, {make_obs(1, 0, 1, observed * 1e9, observed)});
  };

  // Forecast half the observed value: err = (obs-pred)/obs = 0.5. With the
  // residual EWMA's alpha = 0.25 the signed EWMA after k joins is
  // 0.5 · (1 - 0.75^k) and the gain 1/(1 - EWMA) grows toward 2; the clamp
  // holds it at 1 + 0.5 from join 4 on.
  const double expected[] = {1.0 / (1.0 - 0.125), 1.0 / (1.0 - 0.21875),
                             1.0 / (1.0 - 0.2890625)};
  for (const double gain : expected) {
    join(1.0, 2.0);
    EXPECT_DOUBLE_EQ(adapter.gips_multiplier(0, 1), gain);
    EXPECT_DOUBLE_EQ(adapter.power_multiplier(0, 1), gain);
  }
  join(1.0, 2.0);
  EXPECT_DOUBLE_EQ(adapter.gips_multiplier(0, 1), 1.5);
  EXPECT_DOUBLE_EQ(adapter.power_multiplier(0, 1), 1.5);

  // Forecast 4x the observed value: err = -3. Two joins pull the signed
  // EWMA below -1/2, where the gain 1/(1 - EWMA) clamps at 1/1.5.
  join(4.0, 1.0);
  join(4.0, 1.0);
  EXPECT_DOUBLE_EQ(adapter.gips_multiplier(0, 1), 1.0 / 1.5);
  EXPECT_DOUBLE_EQ(adapter.power_multiplier(0, 1), 1.0 / 1.5);
}

TEST(OnlineAdapter, JoinRequiresPredictedCoreTypeAndContiguousEpoch) {
  AdaptationConfig cfg = AdaptationConfig::parse("bias");
  OnlineAdapter adapter(cfg, nullptr);
  std::array<double, kNumFeatures> x{};

  // Wrong core: no join.
  adapter.begin_forecasts(1);
  adapter.add_forecast(1, 0, 0, 1, 1.0, 1.0, x);
  EXPECT_EQ(adapter.observe(2, {make_obs(1, 3, 1, 2.0e9, 2.0)}).joined, 0);

  // Unmeasured: no join.
  adapter.begin_forecasts(2);
  adapter.add_forecast(1, 0, 0, 1, 1.0, 1.0, x);
  auto unmeasured = make_obs(1, 0, 1, 2.0e9, 2.0);
  unmeasured.measured = false;
  EXPECT_EQ(adapter.observe(3, {unmeasured}).joined, 0);

  // Epoch gap: forecasts from pass 3 cannot validate at pass 5.
  adapter.begin_forecasts(3);
  adapter.add_forecast(1, 0, 0, 1, 1.0, 1.0, x);
  EXPECT_EQ(adapter.observe(5, {make_obs(1, 0, 1, 2.0e9, 2.0)}).joined, 0);

  // Contiguous and on the predicted core of the predicted type: joins.
  adapter.begin_forecasts(5);
  adapter.add_forecast(1, 0, 0, 1, 1.0, 1.0, x);
  EXPECT_EQ(adapter.observe(6, {make_obs(1, 0, 1, 2.0e9, 2.0)}).joined, 1);
  EXPECT_EQ(adapter.joins(), 1u);
}

TEST(OnlineAdapter, RlsUpdatesThetaAndDriftResetsCovariance) {
  // A persistently wrong forecast: its |residual| EWMA is over the 0.25
  // drift threshold from the first join, so the detector trips as soon as
  // the 8-join debounce lets it.
  AdaptationConfig cfg = AdaptationConfig::parse("bias,rls");
  PredictorModel model(2);
  OnlineAdapter adapter(cfg, &model);

  const auto theta_before = model.theta(0, 1);
  std::array<double, kNumFeatures> x{};
  x[8] = 1.0;  // measured ipc feature
  x[9] = 1.0;  // intercept

  for (std::uint64_t pass = 1; pass <= 8; ++pass) {
    adapter.begin_forecasts(pass);
    adapter.add_forecast(1, 0, 0, 1, /*raw_gips=*/4.0, /*raw_w=*/4.0, x);
    // Observation far below the forecast: large residual.
    adapter.observe(pass + 1, {make_obs(1, 0, 1, 1.0e9, 1.0)});
    EXPECT_EQ(adapter.cov_resets(), pass < 8 ? 0u : 1u) << "pass " << pass;
  }
  EXPECT_EQ(adapter.rls_updates(), 8u);
  EXPECT_NE(model.theta(0, 1), theta_before);

  const RlsFilter* rls = adapter.rls_filter(0, 1);
  ASSERT_NE(rls, nullptr);
  EXPECT_TRUE(is_spd(rls->covariance()));

  // Same-type pairs never carry a filter (Θ is not used same-type).
  EXPECT_EQ(adapter.rls_filter(1, 1), nullptr);

  const auto states = adapter.pair_states();
  ASSERT_FALSE(states.empty());
  bool found = false;
  for (const auto& st : states) {
    if (st.src_type == 0 && st.dst_type == 1) {
      found = true;
      EXPECT_EQ(st.joins, 8u);
      EXPECT_EQ(st.cov_resets, 1u);
    }
  }
  EXPECT_TRUE(found);
}

// ---------------------------------------------------------------------------
// Config grammar
// ---------------------------------------------------------------------------

TEST(AdaptationConfig, DefaultsAreDisabledAndEmptyStringParses) {
  const AdaptationConfig off;
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.canonical(), "");
  EXPECT_EQ(AdaptationConfig::parse(""), off);
  EXPECT_EQ(AdaptationConfig::parse(",,"), off);
}

TEST(AdaptationConfig, ParsesAndRoundTrips) {
  const std::pair<const char*, const char*> cases[] = {
      {"bias", "bias"}, {"rls", "rls"}, {"bias,rls", "bias,rls"},
      {"rls,bias", "bias,rls"}, {"rls,,rls", "rls"}};
  for (const auto& [spec, canonical] : cases) {
    const AdaptationConfig cfg = AdaptationConfig::parse(spec);
    EXPECT_TRUE(cfg.enabled()) << spec;
    EXPECT_EQ(cfg.canonical(), canonical) << spec;
    EXPECT_EQ(AdaptationConfig::parse(cfg.canonical()), cfg)
        << "round-trip failed for '" << spec << "'";
  }
  const AdaptationConfig cfg = AdaptationConfig::parse("bias,rls");
  EXPECT_TRUE(cfg.bias);
  EXPECT_TRUE(cfg.rls);
  EXPECT_FALSE(AdaptationConfig::parse("bias").rls);
  EXPECT_FALSE(AdaptationConfig::parse("rls").bias);
}

TEST(AdaptationConfig, RejectsMalformedEntries) {
  // Every entry is a bare tier name: the tuning fields and the drift entry
  // are gone (the drift contract lives in obs/residual_tracker.h).
  for (const char* spec :
       {"wat", "bias:0.25", "bias:0.5:1", "rls:0.995", "rls:1:1:1",
        "drift", "drift:0.5:8", "bias,drift:0.1", "Bias", " bias", "rls ",
        "bias;rls", "bias:"}) {
    EXPECT_THROW((void)AdaptationConfig::parse(spec), std::invalid_argument)
        << spec;
  }
}

}  // namespace
}  // namespace sb::core
