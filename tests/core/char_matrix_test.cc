#include "core/char_matrix.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "arch/platform.h"
#include "core/trainer.h"
#include "perf/perf_model.h"
#include "power/power_model.h"

namespace sb::core {
namespace {

class CharMatrixTest : public ::testing::Test {
 protected:
  CharMatrixTest()
      : platform_(arch::Platform::quad_heterogeneous()),
        perf_(platform_),
        power_(platform_, perf_),
        trainer_(perf_, power_),
        model_(trainer_.train(PredictorTrainer::default_training_profiles())) {}

  ThreadObservation observation_on(CoreId core, std::uint64_t seed = 3) {
    Rng rng(seed);
    auto o = trainer_.synthesize_observation(
        PredictorTrainer::default_training_profiles()[5],
        platform_.type_of(core), rng);
    o.tid = 1;
    o.core = core;
    return o;
  }

  arch::Platform platform_;
  perf::PerfModel perf_;
  power::PowerModel power_;
  PredictorTrainer trainer_;
  PredictorModel model_;
};

TEST_F(CharMatrixTest, ShapeAndBookkeeping) {
  const auto mx = build_characterization(
      {observation_on(1), observation_on(2)}, model_, platform_);
  EXPECT_EQ(mx.num_threads(), 2u);
  EXPECT_EQ(mx.num_cores(), 4u);
  EXPECT_EQ(mx.tids.size(), 2u);
  EXPECT_EQ(mx.current[0], 1);
  EXPECT_EQ(mx.current[1], 2);
}

TEST_F(CharMatrixTest, MeasuredColumnPassesThrough) {
  const auto o = observation_on(1);
  const auto mx = build_characterization({o}, model_, platform_);
  // Column 1 (the core it ran on): measured IPC × nominal GHz.
  const double expect_gips = o.ipc * platform_.params_of(1).freq_ghz();
  EXPECT_NEAR(mx.gips(0, 1), expect_gips, 1e-9);
  EXPECT_NEAR(mx.watts(0, 1), o.power_w, 1e-9);
}

TEST_F(CharMatrixTest, OtherColumnsArePredictedAndPositive) {
  const auto mx = build_characterization({observation_on(0)}, model_,
                                         platform_);
  for (CoreId c = 0; c < 4; ++c) {
    EXPECT_GT(mx.gips(0, c), 0.0) << c;
    EXPECT_GT(mx.watts(0, c), 0.0) << c;
  }
  // Strong cores should be predicted faster in absolute GIPS.
  EXPECT_GT(mx.gips(0, 0), mx.gips(0, 3));
  // And the Huge core costs far more watts than the Small core.
  EXPECT_GT(mx.watts(0, 0), 5 * mx.watts(0, 3));
}

TEST_F(CharMatrixTest, UnmeasuredThreadGetsNeutralPrior) {
  ThreadObservation o;
  o.tid = 9;
  o.core = 2;
  o.core_type = 2;
  o.measured = false;
  o.instructions = 0;
  const auto mx = build_characterization({o}, model_, platform_);
  for (CoreId c = 0; c < 4; ++c) {
    // Prior: IPC 0.5 everywhere → GIPS = 0.5 × freq.
    EXPECT_NEAR(mx.gips(0, c), 0.5 * platform_.params_of(c).freq_ghz(),
                1e-9);
    EXPECT_GT(mx.watts(0, c), 0.0);
  }
}

TEST_F(CharMatrixTest, DvfsOppsScaleThroughputAndPower) {
  std::vector<arch::OperatingPoint> opps;
  for (CoreId c = 0; c < 4; ++c) {
    const auto& p = platform_.params_of(c);
    opps.push_back({p.freq_mhz, p.vdd});
  }
  // Down-clock the Big core (id 1) to 40% frequency at reduced voltage.
  opps[1] = {platform_.params_of(1).freq_mhz * 0.4,
             platform_.params_of(1).vdd * 0.7};

  const auto o = observation_on(0);
  const auto nominal = build_characterization({o}, model_, platform_);
  const auto scaled = build_characterization({o}, model_, platform_, &opps);

  // Unchanged cores keep their values.
  EXPECT_NEAR(scaled.gips(0, 0), nominal.gips(0, 0), 1e-9);
  EXPECT_NEAR(scaled.gips(0, 3), nominal.gips(0, 3), 1e-9);
  // The down-clocked core serves fewer GIPS — though more than the raw 0.4
  // frequency ratio for this memory-leaning profile (memory latency in
  // cycles shrinks with the clock) — and burns far less power (V²f).
  EXPECT_LT(scaled.gips(0, 1), 0.85 * nominal.gips(0, 1));
  EXPECT_GT(scaled.gips(0, 1), 0.35 * nominal.gips(0, 1));
  EXPECT_LT(scaled.watts(0, 1), 0.4 * nominal.watts(0, 1));
}

TEST(CharMatrixClasses, OneColumnPerCoreClassHoldingEachCoresValues) {
  // S and P hold one column per (type, frequency, power scale) class:
  // scaled:32 at nominal has four; down-clocking some cores of one type
  // splits that type in two. Every core's column must hold exactly the
  // values a per-core fill computes for that core.
  const auto platform = arch::Platform::scaled_heterogeneous(32);
  const perf::PerfModel perf(platform);
  const power::PowerModel power(platform, perf);
  const PredictorTrainer trainer(perf, power);
  const PredictorModel model =
      trainer.train(PredictorTrainer::default_training_profiles());
  const auto profiles = PredictorTrainer::default_training_profiles();
  Rng rng(17);
  std::vector<ThreadObservation> obs;
  for (int i = 0; i < 12; ++i) {
    const auto c = static_cast<CoreId>((i * 11) % platform.num_cores());
    auto o = trainer.synthesize_observation(
        profiles[static_cast<std::size_t>(i) % profiles.size()],
        platform.type_of(c), rng);
    o.tid = i;
    o.core = c;
    obs.push_back(o);
  }
  ThreadObservation idle;  // never measured: the neutral prior
  idle.tid = 99;
  idle.core = 5;
  idle.core_type = platform.type_of(5);
  idle.measured = false;
  idle.instructions = 0;
  obs.push_back(idle);

  const auto nominal = build_characterization(obs, model, platform);
  EXPECT_EQ(nominal.num_cores(), 128u);
  EXPECT_EQ(nominal.s.cols(), 4u);

  // Every other core of the type that core 1 belongs to runs at 60% clock
  // and 80% voltage: that type now spans two classes.
  std::vector<arch::OperatingPoint> opps;
  int lowered = 0;
  for (CoreId c = 0; c < platform.num_cores(); ++c) {
    const auto& p = platform.params_of(c);
    const bool low =
        platform.type_of(c) == platform.type_of(1) && lowered++ % 2 == 0;
    opps.push_back(low ? arch::OperatingPoint{p.freq_mhz * 0.6, p.vdd * 0.8}
                       : arch::OperatingPoint{p.freq_mhz, p.vdd});
  }
  const auto dvfs = build_characterization(obs, model, platform, &opps);
  EXPECT_EQ(dvfs.s.cols(), 5u);

  // The per-core reference: the same cell formula, evaluated per core.
  const auto expect_per_core = [&](const CharacterizationMatrices& mx,
                                   const std::vector<arch::OperatingPoint>*
                                       core_opps) {
    ASSERT_EQ(mx.num_threads(), obs.size());
    for (std::size_t i = 0; i < obs.size(); ++i) {
      const ThreadObservation& o = obs[i];
      const double src_freq =
          o.freq_mhz > 0 ? o.freq_mhz
                         : platform.params_of_type(o.core_type).freq_mhz;
      for (CoreId c = 0; c < platform.num_cores(); ++c) {
        const auto& params = platform.params_of(c);
        const CoreTypeId type = platform.type_of(c);
        const double freq =
            core_opps ? (*core_opps)[static_cast<std::size_t>(c)].freq_mhz
                      : params.freq_mhz;
        const double scale =
            core_opps ? arch::dynamic_scale(
                            (*core_opps)[static_cast<std::size_t>(c)], params)
                      : 1.0;
        double ipc = 0.5;
        double watts = 0;
        if (!o.measured && o.instructions == 0) {
          watts = model.predict_power(type, ipc) * scale;
        } else if (type == o.core_type && std::abs(freq - src_freq) < 1e-6) {
          ipc = o.ipc;
          watts = std::max(1e-4, o.power_w);
        } else {
          ipc = model.predict_ipc(o, type, src_freq, freq);
          watts = model.predict_power(type, ipc) * scale;
        }
        EXPECT_EQ(mx.gips(i, c), ipc * freq / 1000.0) << i << "," << c;
        EXPECT_EQ(mx.watts(i, c), watts) << i << "," << c;
      }
    }
  };
  expect_per_core(nominal, nullptr);
  expect_per_core(dvfs, &opps);
}

TEST_F(CharMatrixTest, OppVectorSizeValidated) {
  std::vector<arch::OperatingPoint> wrong(2, {1000, 0.8});
  EXPECT_THROW(build_characterization({observation_on(0)}, model_, platform_,
                                      &wrong),
               std::invalid_argument);
}

TEST_F(CharMatrixTest, EmptyObservationsGiveEmptyMatrices) {
  const auto mx = build_characterization({}, model_, platform_);
  EXPECT_EQ(mx.num_threads(), 0u);
}

}  // namespace
}  // namespace sb::core
