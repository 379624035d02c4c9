// TimeseriesRecorder + exporter tests: the `#sb-tsdb v1` contract the
// validators (tools/check_timeseries.py) and the dashboard (tools/sbtop)
// parse, plus the --obs-window grammar (its 10k-mutation fuzz is a row of
// tests/common/spec_fuzz_test.cc).
#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "mini_json.h"
#include "obs/trace.h"

namespace sb::obs {
namespace {

// --------------------------------------------------------------------------
// --obs-window grammar
// --------------------------------------------------------------------------

TEST(TimeseriesConfig, ParsesWindowAndCapacity) {
  const TimeseriesConfig a = TimeseriesConfig::parse("10");
  EXPECT_TRUE(a.enabled);
  EXPECT_EQ(a.window, milliseconds(10));
  EXPECT_EQ(a.capacity, std::size_t{1} << 16);  // default untouched

  const TimeseriesConfig b = TimeseriesConfig::parse("5:8192");
  EXPECT_EQ(b.window, milliseconds(5));
  EXPECT_EQ(b.capacity, 8192u);

  EXPECT_EQ(TimeseriesConfig::parse("1").window, milliseconds(1));
  EXPECT_EQ(TimeseriesConfig::parse("60000:64").capacity, 64u);
  EXPECT_EQ(TimeseriesConfig::parse("10:16777216").capacity,
            std::size_t{1} << 24);
}

TEST(TimeseriesConfig, RejectsBadSpecs) {
  for (const char* bad :
       {"", "0", "60001", "abc", "-5", "1.5", "10:", "10:63", "10:16777217",
        "10:8192:1", ":64", "10:abc", " 10", "10 "}) {
    EXPECT_THROW((void)TimeseriesConfig::parse(bad), std::invalid_argument)
        << "'" << bad << "'";
  }
}

TEST(TimeseriesConfig, CanonicalRoundTrips) {
  for (const char* spec : {"10", "5:8192", "1:64", "60000:16777216"}) {
    const TimeseriesConfig cfg = TimeseriesConfig::parse(spec);
    const TimeseriesConfig again = TimeseriesConfig::parse(cfg.canonical());
    EXPECT_EQ(again.window, cfg.window) << spec;
    EXPECT_EQ(again.capacity, cfg.capacity) << spec;
    EXPECT_EQ(again.canonical(), cfg.canonical()) << spec;
  }
}

// --------------------------------------------------------------------------
// Recorder: frames, ring overflow, snapshot order
// --------------------------------------------------------------------------

TimeseriesConfig small_config(std::size_t capacity) {
  TimeseriesConfig cfg;
  cfg.enabled = true;
  cfg.window = milliseconds(10);
  cfg.capacity = capacity;
  return cfg;
}

TEST(TimeseriesRecorder, InternIsIdempotent) {
  TimeseriesRecorder rec(small_config(16));
  const std::uint32_t a = rec.intern("je");
  const std::uint32_t b = rec.intern("watts");
  EXPECT_NE(a, b);
  EXPECT_EQ(rec.intern("je"), a);
  EXPECT_EQ(rec.names()[a], "je");
  EXPECT_EQ(rec.names()[b], "watts");
}

TEST(TimeseriesRecorder, FrameValueReturnsLatestInFrame) {
  TimeseriesRecorder rec(small_config(16));
  const std::uint32_t a = rec.intern("a");
  const std::uint32_t b = rec.intern("b");
  rec.begin_frame(1000);
  EXPECT_EQ(rec.frame_value(a, -1.0), -1.0);  // nothing recorded yet
  rec.record(a, 1.0);
  rec.record(a, 2.0);  // same signal twice: latest wins
  EXPECT_EQ(rec.frame_value(a, -1.0), 2.0);
  EXPECT_EQ(rec.frame_value(b, -1.0), -1.0);
  rec.begin_frame(2000);  // new frame clears the previous one
  EXPECT_EQ(rec.frame_value(a, -1.0), -1.0);
  EXPECT_EQ(rec.frame_t_ns(), 2000u);
}

TEST(TimeseriesRecorder, RingKeepsNewestAndCountsDropped) {
  TimeseriesRecorder rec(small_config(4));
  const std::uint32_t s = rec.intern("s");
  for (std::uint64_t i = 0; i < 10; ++i) {
    rec.begin_frame(i * 100);
    rec.record(s, static_cast<double>(i));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.recorded(), 10u);
  EXPECT_EQ(rec.dropped(), 6u);
  EXPECT_EQ(rec.frames(), 10u);

  const auto snap = rec.snapshot();
  ASSERT_EQ(snap.samples.size(), 4u);
  EXPECT_EQ(snap.dropped, 6u);
  EXPECT_EQ(snap.frames, 10u);
  EXPECT_EQ(snap.window, milliseconds(10));
  // Oldest -> newest: the last 4 of the 10 recorded samples, in order.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(snap.samples[i].t_ns, (6 + i) * 100) << i;
    EXPECT_EQ(snap.samples[i].value, static_cast<double>(6 + i)) << i;
    EXPECT_EQ(snap.name_of(snap.samples[i].signal), "s");
  }
}

TEST(TimeseriesRecorder, CapacityClampedToAtLeastOne) {
  TimeseriesRecorder rec(small_config(0));
  const std::uint32_t s = rec.intern("s");
  rec.begin_frame(1);
  rec.record(s, 1.0);
  rec.record(s, 2.0);
  EXPECT_EQ(rec.size(), 1u);
  EXPECT_EQ(rec.dropped(), 1u);
  EXPECT_EQ(rec.snapshot().samples.front().value, 2.0);
}

TEST(TimeseriesRecorder, SnapshotBeforeOverflowPreservesRecordOrder) {
  TimeseriesRecorder rec(small_config(16));
  const std::uint32_t a = rec.intern("a");
  const std::uint32_t b = rec.intern("b");
  rec.begin_frame(10);
  rec.record(a, 1.0);
  rec.record(b, 2.0);
  rec.begin_frame(20);
  rec.record(a, 3.0);
  const auto snap = rec.snapshot();
  ASSERT_EQ(snap.samples.size(), 3u);
  EXPECT_EQ(snap.samples[0].t_ns, 10u);
  EXPECT_EQ(snap.name_of(snap.samples[0].signal), "a");
  EXPECT_EQ(snap.samples[1].value, 2.0);
  EXPECT_EQ(snap.samples[2].t_ns, 20u);
  EXPECT_EQ(snap.name_of(99), "?");  // out-of-table id is visible, not UB
}

// --------------------------------------------------------------------------
// `#sb-tsdb v1` exporters
// --------------------------------------------------------------------------

RunObs make_run(int index, const std::string& label) {
  TimeseriesRecorder rec(small_config(16));
  const std::uint32_t a = rec.intern("a");
  const std::uint32_t b = rec.intern("b");
  rec.begin_frame(10'000'000);
  rec.record(a, 1.5);
  rec.record(b, 2.0);
  rec.begin_frame(20'000'000);
  rec.record(a, 2.5);
  RunObs r;
  r.run = index;
  r.label = label;
  r.timeseries_enabled = true;
  r.timeseries = rec.snapshot();
  return r;
}

TEST(TimeseriesWriter, CsvMatchesTheDocumentedContract) {
  const RunObs r = make_run(0, "node");
  std::ostringstream os;
  write_timeseries(os, {&r});
  EXPECT_EQ(os.str(),
            "#sb-tsdb v1\n"
            "#columns sample t_ns,signal,value\n"
            "#run 0 node\n"
            "#meta 0 window_ns=10000000\n"
            "sample,10000000,a,1.5\n"
            "sample,10000000,b,2\n"
            "sample,20000000,a,2.5\n"
            "#counters 0 samples=3 frames=2 dropped=0\n"
            "#summary runs=1\n");
}

TEST(TimeseriesWriter, OrdersRunsByStampedIndexAndSkipsDisabled) {
  const RunObs r2 = make_run(2, "late");
  const RunObs r1 = make_run(1, "early");
  RunObs off;  // timeseries never enabled: skipped entirely
  off.run = 0;
  std::ostringstream os;
  write_timeseries(os, {&r2, nullptr, &off, &r1});
  const std::string out = os.str();
  const std::size_t early = out.find("#run 1 early");
  const std::size_t late = out.find("#run 2 late");
  ASSERT_NE(early, std::string::npos);
  ASSERT_NE(late, std::string::npos);
  EXPECT_LT(early, late);
  EXPECT_EQ(out.find("#run 0"), std::string::npos);
  EXPECT_NE(out.find("#summary runs=2\n"), std::string::npos);
}

TEST(TimeseriesWriter, JsonRendersSameDataWithNullForNonFinite) {
  TimeseriesRecorder rec(small_config(16));
  const std::uint32_t a = rec.intern("a");
  rec.begin_frame(5);
  rec.record(a, 1.25);
  rec.record(a, std::numeric_limits<double>::quiet_NaN());
  RunObs r;
  r.run = 0;
  r.label = "n";
  r.timeseries_enabled = true;
  r.timeseries = rec.snapshot();
  std::ostringstream os;
  write_timeseries_json(os, {&r});
  EXPECT_EQ(os.str(),
            "{\"schema\":\"sb-tsdb\",\"version\":1,\"runs\":["
            "{\"run\":0,\"label\":\"n\",\"window_ns\":10000000,"
            "\"frames\":1,\"dropped\":0,\"samples\":["
            "[5,\"a\",1.25],[5,\"a\",null]]}]}\n");
}

TEST(TimeseriesWriter, JsonEscapesLabelsAndSignalNames) {
  // Run labels and signal names come from user input (platform files name
  // the per-core-type signals); quotes and backslashes must not break the
  // document.
  const std::string label = "node \"a\\b\"";
  const std::string signal = "gips.Pr\"ime\\x";
  TimeseriesRecorder rec(small_config(16));
  rec.begin_frame(5);
  rec.record(rec.intern(signal), 1.5);
  RunObs r;
  r.run = 0;
  r.label = label;
  r.timeseries_enabled = true;
  r.timeseries = rec.snapshot();
  std::ostringstream os;
  write_timeseries_json(os, {&r});
  const auto doc = testjson::parse(os.str());
  const auto& run = doc.at("runs").at(0);
  EXPECT_EQ(run.at("label").str(), label);
  ASSERT_EQ(run.at("samples").size(), 1u);
  EXPECT_EQ(run.at("samples").at(0).at(1).str(), signal);
  EXPECT_EQ(run.at("samples").at(0).at(2).num(), 1.5);
}

TEST(TimeseriesWriter, EmptyRunSetStillEmitsValidDocuments) {
  std::ostringstream csv, json;
  write_timeseries(csv, {});
  write_timeseries_json(json, {});
  EXPECT_EQ(csv.str(),
            "#sb-tsdb v1\n"
            "#columns sample t_ns,signal,value\n"
            "#summary runs=0\n");
  EXPECT_EQ(json.str(), "{\"schema\":\"sb-tsdb\",\"version\":1,\"runs\":[]}\n");
}

TEST(TimeseriesWriter, ColumnListHasOneSourceOfTruth) {
  EXPECT_STREQ(timeseries_sample_columns(), "t_ns,signal,value");
}

// --------------------------------------------------------------------------
// Prometheus snapshot
// --------------------------------------------------------------------------

TEST(PrometheusWriter, LabelsNodesAndRendersAllThreeKinds) {
  RunObs fleet;  // run 0: the fleet itself, no labels
  fleet.run = 0;
  fleet.metrics_enabled = true;
  fleet.metrics.counter("jobs.completed").add(3);
  RunObs node;  // run 1 -> node="0"
  node.run = 1;
  node.metrics_enabled = true;
  node.metrics.gauge("node.load").set(0.5);
  node.metrics.histogram("wake_ns").record(100);
  node.metrics.histogram("wake_ns").record(200);

  std::ostringstream os;
  write_prometheus(os, {&node, &fleet});  // out of order on purpose
  const std::string out = os.str();
  EXPECT_NE(out.find("# TYPE sb_jobs_completed counter\n"),
            std::string::npos);
  EXPECT_NE(out.find("sb_jobs_completed 3\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE sb_node_load gauge\n"), std::string::npos);
  EXPECT_NE(out.find("sb_node_load{node=\"0\"} 0.5\n"), std::string::npos);
  EXPECT_NE(out.find("# TYPE sb_wake_ns summary\n"), std::string::npos);
  EXPECT_NE(out.find("sb_wake_ns{node=\"0\",quantile=\"0.99\"} "),
            std::string::npos);
  EXPECT_NE(out.find("sb_wake_ns_sum{node=\"0\"} 300\n"), std::string::npos);
  EXPECT_NE(out.find("sb_wake_ns_count{node=\"0\"} 2\n"), std::string::npos);
}

}  // namespace
}  // namespace sb::obs
