#include "obs/trace.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <vector>

#include "mini_json.h"

namespace sb::obs {
namespace {

// --------------------------------------------------------------------------
// Ring buffer
// --------------------------------------------------------------------------

TEST(EpochTracer, InternIsIdempotent) {
  EpochTracer t(16);
  const auto a = t.intern("sense");
  const auto b = t.intern("predict");
  EXPECT_NE(a, b);
  EXPECT_EQ(t.intern("sense"), a);
  EXPECT_EQ(t.names().size(), 2u);
}

TEST(EpochTracer, RecordsSpansAndInstantsInSeqOrder) {
  EpochTracer t(16);
  t.span("sense", 1000, 50, 0);
  t.instant("migration", 1100, 0, {{"tid", 3.0}, {"src", 0.0}, {"dst", 2.0}});
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.events.size(), 2u);
  EXPECT_EQ(snap.name_of(snap.events[0].name), "sense");
  EXPECT_EQ(snap.events[0].phase, 'X');
  EXPECT_EQ(snap.events[0].dur_ns, 50u);
  EXPECT_EQ(snap.events[1].phase, 'i');
  EXPECT_EQ(snap.events[1].nargs, 3);
  EXPECT_EQ(snap.name_of(snap.events[1].args[0].key), "tid");
  EXPECT_EQ(snap.events[1].args[2].value, 2.0);
  EXPECT_LT(snap.events[0].seq, snap.events[1].seq);
}

TEST(EpochTracer, ExcessArgsAreTruncatedToFour) {
  EpochTracer t(4);
  t.instant("x", 0, 0,
            {{"a", 1.0}, {"b", 2.0}, {"c", 3.0}, {"d", 4.0}, {"e", 5.0}});
  const auto snap = t.snapshot();
  ASSERT_EQ(snap.events.size(), 1u);
  EXPECT_EQ(snap.events[0].nargs, 4);
}

TEST(EpochTracer, OverflowDropsOldestAndCountsDropped) {
  constexpr std::size_t kCap = 8;
  EpochTracer t(kCap);
  for (std::uint64_t i = 0; i < 20; ++i) {
    t.span("ev", i * 100, 10, i);
  }
  EXPECT_EQ(t.size(), kCap);
  EXPECT_EQ(t.recorded(), 20u);
  EXPECT_EQ(t.dropped(), 20u - kCap);

  const auto snap = t.snapshot();
  EXPECT_EQ(snap.dropped, 20u - kCap);
  ASSERT_EQ(snap.events.size(), kCap);
  // The newest kCap events survive, oldest → newest.
  for (std::size_t i = 0; i < kCap; ++i) {
    EXPECT_EQ(snap.events[i].seq, 20 - kCap + i);
  }
  EXPECT_TRUE(std::is_sorted(snap.events.begin(), snap.events.end(),
                             [](const TraceEvent& a, const TraceEvent& b) {
                               return a.seq < b.seq;
                             }));
}

// --------------------------------------------------------------------------
// Chrome export
// --------------------------------------------------------------------------

RunObs make_run(int run, const std::string& label, std::uint64_t nepochs,
                std::size_t capacity = 1 << 10) {
  EpochTracer t(capacity);
  for (std::uint64_t e = 0; e < nepochs; ++e) {
    const std::uint64_t base = e * 60'000'000;
    t.span("sense", base, 1000, e);
    t.span("predict", base + 1000, 2000, e);
    t.span("balance", base + 3000, 4000, e, {{"migrations", 1.0}});
    t.instant("migration", base + 7000, e, {{"tid", double(run)}});
  }
  RunObs r;
  r.run = run;
  r.label = label;
  r.trace_enabled = true;
  r.trace = t.snapshot();
  return r;
}

TEST(ChromeTrace, ParsesAndCarriesSummaryBlock) {
  const RunObs r = make_run(0, "smartbalance", 3);
  std::ostringstream os;
  write_chrome_trace(os, {&r});
  const auto doc = testjson::parse(os.str());
  ASSERT_TRUE(doc.contains("traceEvents"));
  // 3 epochs x 4 events + 1 process_name metadata record.
  EXPECT_EQ(doc.at("traceEvents").size(), 13u);
  EXPECT_EQ(doc.at("smartbalance").at("runs").num(), 1.0);
  EXPECT_EQ(doc.at("smartbalance").at("events").num(), 12.0);
  EXPECT_EQ(doc.at("smartbalance").at("dropped_events").num(), 0.0);
  const auto& meta = doc.at("traceEvents").at(0);
  EXPECT_EQ(meta.at("ph").str(), "M");
  EXPECT_EQ(meta.at("args").at("name").str(), "smartbalance");
  // Spans convert ts to microseconds: epoch 1's sense starts at 60000 us.
  bool found = false;
  for (const auto& ev : doc.at("traceEvents").arr()) {
    if (ev.at("ph").str() == "X" && ev.at("name").str() == "sense" &&
        ev.at("args").at("epoch").num() == 1.0) {
      EXPECT_DOUBLE_EQ(ev.at("ts").num(), 60000.0);
      EXPECT_DOUBLE_EQ(ev.at("dur").num(), 1.0);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(ChromeTrace, DroppedEventsSurfaceInSummary) {
  RunObs r = make_run(0, "r", 10, /*capacity=*/16);
  ASSERT_GT(r.trace.dropped, 0u);
  std::ostringstream os;
  write_chrome_trace(os, {&r});
  const auto doc = testjson::parse(os.str());
  EXPECT_EQ(doc.at("smartbalance").at("dropped_events").num(),
            static_cast<double>(r.trace.dropped));
}

TEST(ChromeTrace, OutputIsIndependentOfRunOrderPassedIn) {
  // The merged export is keyed by the stamped run index, so shuffling the
  // pointer order (as --jobs completion order would) changes nothing.
  const RunObs r0 = make_run(0, "baseline", 2);
  const RunObs r1 = make_run(1, "smartbalance-eq11", 3);
  const RunObs r2 = make_run(2, "smartbalance", 1);
  std::ostringstream in_order, shuffled;
  write_chrome_trace(in_order, {&r0, &r1, &r2});
  write_chrome_trace(shuffled, {&r2, &r0, &r1});
  EXPECT_EQ(in_order.str(), shuffled.str());

  // Events are grouped per run (ascending pid), each group sorted by
  // (epoch, seq).
  const auto doc = testjson::parse(in_order.str());
  int last_pid = -1;
  std::uint64_t last_epoch = 0;
  for (const auto& ev : doc.at("traceEvents").arr()) {
    if (ev.at("ph").str() == "M") continue;
    const int pid = static_cast<int>(ev.at("pid").num());
    const auto epoch = static_cast<std::uint64_t>(
        ev.at("args").at("epoch").num());
    if (pid != last_pid) {
      EXPECT_GT(pid, last_pid);
      last_pid = pid;
    } else {
      EXPECT_GE(epoch, last_epoch);
    }
    last_epoch = epoch;
  }
  EXPECT_EQ(last_pid, 2);
}

TEST(ChromeTrace, NullRunsAreSkipped) {
  const RunObs r = make_run(0, "only", 1);
  std::ostringstream os;
  write_chrome_trace(os, {nullptr, &r, nullptr});
  const auto doc = testjson::parse(os.str());
  EXPECT_EQ(doc.at("smartbalance").at("runs").num(), 1.0);
}

TEST(ChromeTrace, UntracedRunsAreSkipped) {
  const RunObs traced = make_run(0, "traced", 2);
  RunObs untraced = make_run(1, "untraced", 3);
  untraced.trace_enabled = false;
  std::ostringstream os;
  write_chrome_trace(os, {&untraced, &traced});
  const auto doc = testjson::parse(os.str());
  EXPECT_EQ(doc.at("smartbalance").at("runs").num(), 1.0);
  EXPECT_EQ(doc.at("smartbalance").at("events").num(), 8.0);
  for (const auto& ev : doc.at("traceEvents").arr()) {
    EXPECT_EQ(ev.at("pid").num(), 0.0);
  }
}

TEST(ChromeTrace, UnwritablePathThrows) {
  const RunObs r = make_run(0, "x", 1);
  EXPECT_THROW(
      write_chrome_trace_file("/nonexistent-dir/trace.json", {&r}),
      std::runtime_error);
}

// --------------------------------------------------------------------------
// Metrics merge across runs
// --------------------------------------------------------------------------

TEST(MergeMetrics, SubmissionOrderNotPointerOrder) {
  RunObs a, b;
  a.run = 0;
  a.metrics_enabled = true;
  a.metrics.counter("epoch.passes").add(10);
  a.metrics.gauge("g").set(1.0);
  b.run = 1;
  b.metrics_enabled = true;
  b.metrics.counter("epoch.passes").add(5);
  b.metrics.gauge("g").set(2.0);

  const MetricsRegistry fwd = merge_metrics({&a, &b});
  const MetricsRegistry rev = merge_metrics({&b, &a});
  EXPECT_EQ(fwd.counters().at("epoch.passes").value, 15u);
  EXPECT_EQ(rev.counters().at("epoch.passes").value, 15u);
  // Gauge adoption follows run order even when pointers are reversed.
  EXPECT_EQ(fwd.gauges().at("g").value, 2.0);
  EXPECT_EQ(rev.gauges().at("g").value, 2.0);
}

}  // namespace
}  // namespace sb::obs
