// SloEngine tests: the burn-rate grammar (parse/canonical; its 10k-mutation
// fuzz is a row of tests/common/spec_fuzz_test.cc) and the rolling-window
// breach semantics — an objective breaches when the violating count of its
// full window exceeds burn * window_frames, breach and recovery are edge
// events with trace instants, and every scored frame appends slo.burn.* /
// slo.breached.* rows back into the timeseries.
#include "obs/slo.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace sb::obs {
namespace {

// --------------------------------------------------------------------------
// Grammar
// --------------------------------------------------------------------------

TEST(SloConfig, ParsesObjectivesWithDefaults) {
  const SloConfig cfg =
      SloConfig::parse("p99_wake_us<2000:burn=0.02,je>55e6:window=200");
  ASSERT_EQ(cfg.objectives.size(), 2u);
  const SloObjective& a = cfg.objectives[0];
  EXPECT_EQ(a.signal, "p99_wake_us");
  EXPECT_TRUE(a.upper);
  EXPECT_EQ(a.threshold, 2000.0);
  EXPECT_EQ(a.burn, 0.02);
  EXPECT_EQ(a.window, milliseconds(200));  // default window
  const SloObjective& b = cfg.objectives[1];
  EXPECT_EQ(b.signal, "je");
  EXPECT_FALSE(b.upper);
  EXPECT_EQ(b.threshold, 55e6);
  EXPECT_EQ(b.burn, 0.0);  // default burn: first violation may breach
  EXPECT_EQ(b.window, milliseconds(200));
  EXPECT_FALSE(cfg.empty());
}

TEST(SloConfig, RejectsBadSpecs) {
  for (const char* bad :
       {"", "p99", "p99<", "p99<abc", "p99<nan", "p99<inf", "p99<1e999",
        "<2000", "9sig<1", "sig-x<1", "p99<1:burn=1", "p99<1:burn=-0.1",
        "p99<1:burn=2", "p99<1:window=0", "p99<1:window=600001",
        "p99<1:window=1e3", "p99<1:wat=1", "p99<1:burn=", "p99<1,",
        "p99<1:burn=0.1:"}) {
    EXPECT_THROW((void)SloConfig::parse(bad), std::invalid_argument)
        << "'" << bad << "'";
  }
}

TEST(SloConfig, CanonicalRoundTrips) {
  for (const char* spec :
       {"p99_wake_us<2000:burn=0.02", "je>55e6:window=200",
        "je_w>1e9:burn=0.3:window=200,p99_wake_us<20000:burn=0.3:window=200",
        "a.b_c<0.125", "x>0:window=600000", "x>0:window=100000"}) {
    const SloConfig cfg = SloConfig::parse(spec);
    const std::string canon = cfg.canonical();
    const SloConfig again = SloConfig::parse(canon);
    EXPECT_EQ(again.canonical(), canon) << spec;
    ASSERT_EQ(again.objectives.size(), cfg.objectives.size()) << spec;
    for (std::size_t i = 0; i < cfg.objectives.size(); ++i) {
      EXPECT_EQ(again.objectives[i].signal, cfg.objectives[i].signal);
      EXPECT_EQ(again.objectives[i].upper, cfg.objectives[i].upper);
      EXPECT_EQ(again.objectives[i].threshold, cfg.objectives[i].threshold);
      EXPECT_EQ(again.objectives[i].burn, cfg.objectives[i].burn);
      EXPECT_EQ(again.objectives[i].window, cfg.objectives[i].window);
    }
  }
}

// --------------------------------------------------------------------------
// Engine semantics
// --------------------------------------------------------------------------

TimeseriesRecorder make_recorder() {
  TimeseriesConfig cfg;
  cfg.enabled = true;
  cfg.window = milliseconds(10);
  cfg.capacity = 1024;
  return TimeseriesRecorder(cfg);
}

/// Feeds one frame with `signal` = value and scores it.
void feed(SloEngine& eng, TimeseriesRecorder& rec, MetricsRegistry& m,
          EpochTracer* tracer, std::uint64_t frame, double value) {
  rec.begin_frame(frame * 10'000'000);
  rec.record(rec.intern("sig"), value);
  eng.on_frame(rec, m, tracer, frame);
}

std::uint64_t counter_of(const MetricsRegistry& m, const char* name) {
  const auto it = m.counters().find(name);
  return it != m.counters().end() ? it->second.value : 0;
}

TEST(SloEngine, BreachesWhenViolationsExceedBurnBudget) {
  // window=50ms over a 10ms sampler -> 5 frames; burn=0.3 tolerates
  // floor(0.3*5)=1 violating frame: breach at the 2nd violation in window.
  SloEngine eng(SloConfig::parse("sig<100:burn=0.3:window=50"),
                milliseconds(10));
  TimeseriesRecorder rec = make_recorder();
  MetricsRegistry m;
  EpochTracer tracer(64);

  std::uint64_t f = 0;
  feed(eng, rec, m, &tracer, f++, 50.0);   // ok
  feed(eng, rec, m, &tracer, f++, 150.0);  // violation #1: within budget
  EXPECT_EQ(eng.breaches(), 0u);
  feed(eng, rec, m, &tracer, f++, 150.0);  // violation #2: breach edge
  EXPECT_EQ(eng.breaches(), 1u);
  EXPECT_TRUE(eng.ever_breached());
  feed(eng, rec, m, &tracer, f++, 150.0);  // still breached: no new edge
  EXPECT_EQ(eng.breaches(), 1u);
  // Recovery: violations age out of the 5-frame window.
  feed(eng, rec, m, &tracer, f++, 50.0);
  feed(eng, rec, m, &tracer, f++, 50.0);
  feed(eng, rec, m, &tracer, f++, 50.0);  // window still holds 2 violations
  EXPECT_EQ(eng.recoveries(), 0u);
  feed(eng, rec, m, &tracer, f++, 50.0);  // 1 violation left: recovered
  EXPECT_EQ(eng.recoveries(), 1u);

  EXPECT_EQ(counter_of(m, "slo.samples"), f);
  EXPECT_EQ(counter_of(m, "slo.violations"), 3u);
  EXPECT_EQ(counter_of(m, "slo.breaches"), 1u);
  EXPECT_EQ(counter_of(m, "slo.recoveries"), 1u);
  // Frames scored while breached: violations #2..#3 plus the aging-out
  // frames until the budget is met again.
  EXPECT_EQ(eng.breach_frames(), counter_of(m, "slo.breach_samples"));
  EXPECT_GT(eng.breach_frames(), 0u);

  // Edge events landed on the tracer as instants.
  const auto snap = tracer.snapshot();
  int breach_events = 0, recover_events = 0;
  for (const TraceEvent& ev : snap.events) {
    if (snap.name_of(ev.name) == "slo.breach") ++breach_events;
    if (snap.name_of(ev.name) == "slo.recovered") ++recover_events;
  }
  EXPECT_EQ(breach_events, 1);
  EXPECT_EQ(recover_events, 1);
}

TEST(SloEngine, ZeroBurnBreachesOnFirstViolation) {
  SloEngine eng(SloConfig::parse("sig<100:window=50"), milliseconds(10));
  TimeseriesRecorder rec = make_recorder();
  MetricsRegistry m;
  feed(eng, rec, m, nullptr, 0, 99.0);  // strictly below: ok
  EXPECT_EQ(eng.breaches(), 0u);
  feed(eng, rec, m, nullptr, 1, 100.0);  // at threshold: violation
  EXPECT_EQ(eng.breaches(), 1u);
}

TEST(SloEngine, LowerBoundObjectiveViolatesBelowThreshold) {
  SloEngine eng(SloConfig::parse("sig>10:window=50"), milliseconds(10));
  TimeseriesRecorder rec = make_recorder();
  MetricsRegistry m;
  feed(eng, rec, m, nullptr, 0, 11.0);  // strictly above: ok
  EXPECT_EQ(eng.breaches(), 0u);
  feed(eng, rec, m, nullptr, 1, 10.0);  // at threshold: violation
  EXPECT_EQ(eng.breaches(), 1u);
}

TEST(SloEngine, AbsentSignalFramesAreNotScored) {
  SloEngine eng(SloConfig::parse("sig<100:window=50"), milliseconds(10));
  TimeseriesRecorder rec = make_recorder();
  MetricsRegistry m;
  rec.begin_frame(0);
  rec.record(rec.intern("other"), 1.0);  // frame without "sig"
  eng.on_frame(rec, m, nullptr, 0);
  EXPECT_EQ(counter_of(m, "slo.samples"), 0u);
  feed(eng, rec, m, nullptr, 1, 50.0);
  EXPECT_EQ(counter_of(m, "slo.samples"), 1u);
}

TEST(SloEngine, RecordsBurnAndBreachedRowsEveryScoredFrame) {
  SloEngine eng(SloConfig::parse("sig<100:burn=0.5:window=40"),
                milliseconds(10));  // 4-frame window, budget 2
  TimeseriesRecorder rec = make_recorder();
  MetricsRegistry m;
  feed(eng, rec, m, nullptr, 0, 150.0);
  const std::uint32_t burn_id = rec.intern("slo.burn.sig");
  const std::uint32_t breached_id = rec.intern("slo.breached.sig");
  EXPECT_EQ(rec.frame_value(burn_id, -1.0), 0.25);  // 1 of 4 frames
  EXPECT_EQ(rec.frame_value(breached_id, -1.0), 0.0);
  feed(eng, rec, m, nullptr, 1, 150.0);
  EXPECT_EQ(rec.frame_value(burn_id, -1.0), 0.5);
  EXPECT_EQ(rec.frame_value(breached_id, -1.0), 0.0);  // == budget: holds
  feed(eng, rec, m, nullptr, 2, 150.0);
  EXPECT_EQ(rec.frame_value(burn_id, -1.0), 0.75);
  EXPECT_EQ(rec.frame_value(breached_id, -1.0), 1.0);  // > budget: breached
}

TEST(SloEngine, WindowShorterThanSamplerStillScoresEveryFrame) {
  // window=1ms over a 10ms sampler clamps to a 1-frame window.
  SloEngine eng(SloConfig::parse("sig<100:window=1"), milliseconds(10));
  TimeseriesRecorder rec = make_recorder();
  MetricsRegistry m;
  feed(eng, rec, m, nullptr, 0, 150.0);
  EXPECT_EQ(eng.breaches(), 1u);
  feed(eng, rec, m, nullptr, 1, 50.0);
  EXPECT_EQ(eng.recoveries(), 1u);
  feed(eng, rec, m, nullptr, 2, 150.0);
  EXPECT_EQ(eng.breaches(), 2u);
}

}  // namespace
}  // namespace sb::obs
