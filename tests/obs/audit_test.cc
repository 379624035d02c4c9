// Unit tests for the prediction-audit flight recorder: how it ledgers the
// shared forecast join, residual math, decision regret, the drift
// detector's rising-edge/re-arm contract, ring overflow accounting,
// migration close-out, and the schema-versioned export's byte-level
// determinism.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "obs/audit.h"
#include "obs/audit_writer.h"
#include "obs/trace.h"

namespace sb::obs {
namespace {

Observation make_obs(std::int64_t tid, std::int32_t core,
                     std::int32_t core_type, double gips, double watts,
                     bool measured = true) {
  Observation o;
  o.tid = tid;
  o.core = core;
  o.core_type = core_type;
  o.gips = gips;
  o.watts = watts;
  o.measured = measured;
  return o;
}

/// An unadapted forecast: raw == corrected.
Forecast make_pred(std::int64_t tid, std::int32_t core, std::int32_t src_type,
                   std::int32_t dst_type, double gips, double w) {
  Forecast f;
  f.tid = tid;
  f.core = core;
  f.src_type = src_type;
  f.dst_type = dst_type;
  f.gips = f.raw_gips = gips;
  f.watts = f.raw_watts = w;
  return f;
}

/// Drives the recorder as the balancer does, through a ForecastLog: each
/// sensed pass joins the forecasts the previous decision made before the
/// recorder reads them.
class Loop {
 public:
  std::vector<DriftEvent> sense(std::uint64_t epoch,
                                std::vector<Observation> obs,
                                double realized_j) {
    log_.sensed() = std::move(obs);
    log_.join(epoch);
    const auto edges = r.join(epoch, log_, realized_j);
    rows_ = &log_.open(epoch);
    return edges;
  }
  void decide(const EpochAuditRecord& d, std::vector<Forecast> forecasts = {}) {
    *rows_ = std::move(forecasts);
    r.record_decision(d, rows_->size());
  }

  AuditRecorder r;

 private:
  ForecastLog log_;
  std::vector<Forecast>* rows_ = nullptr;
};

EpochAuditRecord make_decision(std::uint64_t epoch, double pred_dj = 0,
                               bool applied = true) {
  EpochAuditRecord d;
  d.epoch = epoch;
  d.applied = applied ? 1 : 0;
  d.pred_dj = pred_dj;
  return d;
}

TEST(AuditRecorder, JoinComputesSignedRelativeResiduals) {
  Loop l;
  l.sense(1, {}, 10.0);
  l.decide(make_decision(1, /*pred_dj=*/0.5),
           {make_pred(7, 2, 0, 1, /*gips=*/2.0, /*w=*/1.0)});

  const auto edges =
      l.sense(2, {make_obs(7, 2, 1, /*gips=*/2.5, /*watts=*/0.8)}, 10.4);
  EXPECT_TRUE(edges.empty());
  EXPECT_EQ(l.r.joined(), 1u);
  EXPECT_EQ(l.r.unjoined(), 0u);
  EXPECT_EQ(l.r.predictions(), 1u);

  const AuditSnapshot snap = l.r.snapshot();
  ASSERT_EQ(snap.threads.size(), 1u);
  const ThreadAuditRecord& t = snap.threads[0];
  EXPECT_EQ(t.epoch, 2u);
  EXPECT_EQ(t.tid, 7);
  EXPECT_EQ(t.core, 2);
  EXPECT_EQ(t.src_type, 0);
  EXPECT_EQ(t.dst_type, 1);
  // err = (obs - pred) / obs, signed.
  EXPECT_DOUBLE_EQ(t.gips_err, (2.5 - 2.0) / 2.5);
  EXPECT_DOUBLE_EQ(t.power_err, (0.8 - 1.0) / 0.8);

  // The forecasting pass's epoch entry got its realized ΔJ and regret.
  ASSERT_EQ(snap.epochs.size(), 1u);
  const EpochAuditRecord& e = snap.epochs[0];
  EXPECT_EQ(e.epoch, 1u);
  EXPECT_DOUBLE_EQ(e.realized_j, 10.0);
  EXPECT_EQ(e.realized_valid, 1);
  EXPECT_DOUBLE_EQ(e.realized_dj, 10.4 - 10.0);
  EXPECT_DOUBLE_EQ(e.regret, 0.5 - (10.4 - 10.0));
  EXPECT_EQ(e.joined, 1);
  EXPECT_EQ(e.unjoined, 0);
}

TEST(AuditRecorder, RejectedForecastsCountAsUnjoined) {
  // The validity rule is the shared join's (residual_tracker_test.cc): a
  // forecast it rejects leaves no thread record and counts as unjoined in
  // the totals and in the forecasting pass's epoch record.
  Loop l;
  l.sense(1, {}, 0.0);
  l.decide(make_decision(1), {make_pred(7, 2, 0, 1, 2.0, 1.0),
                              make_pred(8, 3, 0, 1, 2.0, 1.0)});
  l.sense(2, {make_obs(7, 2, 1, 2.0, 1.0), make_obs(8, 2, 1, 2.0, 1.0)}, 0.0);
  EXPECT_EQ(l.r.joined(), 1u);
  EXPECT_EQ(l.r.unjoined(), 1u);
  EXPECT_EQ(l.r.predictions(), 2u);
  const AuditSnapshot snap = l.r.snapshot();
  ASSERT_EQ(snap.threads.size(), 1u);
  EXPECT_EQ(snap.threads[0].tid, 7);
  ASSERT_EQ(snap.epochs.size(), 1u);
  EXPECT_EQ(snap.epochs[0].joined, 1);
  EXPECT_EQ(snap.epochs[0].unjoined, 1);
}

TEST(AuditRecorder, NearZeroObservationYieldsZeroResidual) {
  // A thread that retired essentially nothing says nothing about the
  // predictor; the residual is defined as 0 rather than a huge ratio.
  Loop l;
  l.sense(1, {}, 0.0);
  l.decide(make_decision(1), {make_pred(7, 2, 0, 1, 2.0, 1.0)});
  l.sense(2, {make_obs(7, 2, 1, /*gips=*/0.0, /*watts=*/1e-13)}, 0.0);
  const AuditSnapshot snap = l.r.snapshot();
  ASSERT_EQ(snap.threads.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.threads[0].gips_err, 0.0);
  EXPECT_DOUBLE_EQ(snap.threads[0].power_err, 0.0);
}

TEST(AuditRecorder, EpochGapDiscardsPendingForecasts) {
  Loop l;
  l.sense(1, {}, 10.0);
  l.decide(make_decision(1, 0.5), {make_pred(7, 2, 0, 1, 2.0, 1.0)});

  // Pass 3, not 2: the one-epoch-later contract is broken.
  l.sense(3, {make_obs(7, 2, 1, 2.0, 1.0)}, 11.0);
  EXPECT_EQ(l.r.joined(), 0u);
  EXPECT_EQ(l.r.unjoined(), 1u);
  const AuditSnapshot snap = l.r.snapshot();
  ASSERT_EQ(snap.epochs.size(), 1u);
  EXPECT_EQ(snap.epochs[0].realized_valid, 0);
  EXPECT_EQ(snap.epochs[0].joined, 0);
  EXPECT_EQ(snap.epochs[0].unjoined, 1);
}

TEST(AuditRecorder, MigrationsWithoutDecisionAreIgnored) {
  AuditRecorder r;
  r.record_migration(MigrationAuditRecord{}, /*src_eff=*/0.0);
  const AuditSnapshot snap = r.snapshot();
  EXPECT_TRUE(snap.migrations.empty());
  EXPECT_EQ(r.predictions(), 0u);
}

TEST(AuditRecorder, DriftRisingEdgeDebounceAndRearm) {
  // The detector itself is ResidualTracker's (residual_tracker_test.cc);
  // this checks the recorder feeds it the corrected residuals at the drift
  // contract (alpha 0.25, threshold 0.25, 8 joins) and turns its rising
  // edges and state into the export.
  Loop l;

  // Each "round" forecasts gips=1.0 and observes `obs_gips` one pass later:
  // err = (obs - 1) / obs.
  std::uint64_t epoch = 1;
  std::vector<DriftEvent> edges;
  auto round = [&](double obs_gips) {
    edges = l.sense(epoch, {make_obs(7, 2, 1, obs_gips, 1.0)}, 0.0);
    l.decide(make_decision(epoch), {make_pred(7, 2, 0, 1, 1.0, 1.0)});
    ++epoch;
  };

  round(2.0);  // nothing pending yet
  // err = 0.5 per join: the |err| EWMA 0.5 · (1 - 0.75^k) passes the
  // threshold at join 3 but is debounced until join 8.
  for (std::uint64_t k = 1; k < kDriftMinJoins; ++k) {
    round(2.0);
    EXPECT_TRUE(edges.empty()) << "join " << k;
  }
  round(2.0);  // join 8: rising edge
  ASSERT_EQ(edges.size(), 1u);
  EXPECT_TRUE(l.r.drift_active());
  const DriftEvent ev = edges[0];
  EXPECT_EQ(ev.epoch, 9u);
  EXPECT_EQ(ev.src_type, 0);
  EXPECT_EQ(ev.dst_type, 1);
  EXPECT_EQ(ev.metric, 0);  // throughput residual tripped
  const double peak = 58975.0 / 131072.0;  // 0.5 · (1 - 0.75^8)
  EXPECT_DOUBLE_EQ(ev.ewma, peak);
  EXPECT_EQ(ev.joins, 8u);

  // Exact predictions decay the EWMA by 0.75 per join: still over the
  // threshold after two, re-armed after three.
  round(1.0);
  round(1.0);
  EXPECT_TRUE(l.r.drift_active());
  round(1.0);
  EXPECT_FALSE(l.r.drift_active());

  // Final tracker state is exported.
  const AuditSnapshot snap = l.r.snapshot();
  EXPECT_EQ(snap.drift_events.size(), 1u);
  ASSERT_EQ(snap.drift_states.size(), 1u);
  const DriftState& st = snap.drift_states[0];
  EXPECT_EQ(st.src_type, 0);
  EXPECT_EQ(st.dst_type, 1);
  EXPECT_EQ(st.joins, 11u);
  EXPECT_DOUBLE_EQ(st.ewma_gips, peak * 27.0 / 64.0);
  EXPECT_DOUBLE_EQ(st.ewma_gips_signed, peak * 27.0 / 64.0);
  EXPECT_DOUBLE_EQ(st.ewma_power, 0.0);
  EXPECT_EQ(st.active, 0);
}

TEST(AuditRecorder, RingOverflowDropsOldestAndKeepsCounts) {
  Loop l;
  const std::uint64_t decisions = kAuditCapacity + 2;
  for (std::uint64_t e = 1; e <= decisions; ++e) {
    l.sense(e, {make_obs(7, 2, 1, 2.0, 1.0)}, 0.0);
    l.decide(make_decision(e), {make_pred(7, 2, 0, 1, 1.0, 1.0)});
  }
  const AuditSnapshot snap = l.r.snapshot();
  // Two decisions more than the ring holds: epochs 1 and 2 dropped.
  ASSERT_EQ(snap.epochs.size(), kAuditCapacity);
  EXPECT_EQ(snap.epochs.front().epoch, 3u);
  EXPECT_EQ(snap.epochs.back().epoch, decisions);
  EXPECT_EQ(snap.dropped_epochs, 2u);
  // One thread join per pass after the first: one more than the ring holds.
  ASSERT_EQ(snap.threads.size(), kAuditCapacity);
  EXPECT_EQ(snap.threads.front().epoch, 3u);
  EXPECT_EQ(snap.threads.back().epoch, decisions);
  EXPECT_EQ(snap.dropped_threads, 1u);
  EXPECT_EQ(l.r.joined(), decisions - 1);
}

TEST(Ring, ZeroCapacityKeepsTheNewestRecord) {
  // Capacity clamps to one record, so a recorder's ring never loses the
  // newest one.
  Ring<int> ring(0);
  for (int v = 1; v <= 3; ++v) ring.push(v);
  EXPECT_EQ(ring.capacity(), 1u);
  EXPECT_EQ(ring.snapshot(), std::vector<int>{3});
  EXPECT_EQ(ring.recorded(), 3u);
  EXPECT_EQ(ring.dropped(), 2u);
  EXPECT_EQ(ring.find(1), nullptr);
  ASSERT_NE(ring.find(2), nullptr);
  EXPECT_EQ(*ring.find(2), 3);
}

TEST(AuditRecorder, MigrationValidatedByFirstWarmedDestinationMeasurement) {
  Loop l;
  l.sense(1, {}, 0.0);
  l.decide(make_decision(1));
  MigrationAuditRecord m;
  m.tid = 5;
  m.src = 0;
  m.dst = 3;
  m.src_type = 0;
  m.dst_type = 2;
  m.pred_gain = 0.4;
  l.r.record_migration(m, /*src_eff=*/1.0);

  // Epoch 2 still serves the cached pre-migration row (source core): the
  // entry must stay pending, not be closed out as "thread moved away".
  l.sense(2, {make_obs(5, 0, 0, 1.0, 1.0)}, 0.0);
  {
    const AuditSnapshot snap = l.r.snapshot();
    ASSERT_EQ(snap.migrations.size(), 1u);
    EXPECT_EQ(snap.migrations[0].realized_valid, 0);
  }

  // Epoch 3 sees the warmed-up destination measurement.
  l.sense(3, {make_obs(5, 3, 2, /*gips=*/3.0, /*watts=*/2.0)}, 0.0);
  const AuditSnapshot snap = l.r.snapshot();
  ASSERT_EQ(snap.migrations.size(), 1u);
  const MigrationAuditRecord& rec = snap.migrations[0];
  EXPECT_EQ(rec.epoch, 1u);
  EXPECT_EQ(rec.tid, 5);
  EXPECT_EQ(rec.src, 0);
  EXPECT_EQ(rec.dst, 3);
  EXPECT_DOUBLE_EQ(rec.pred_gain, 0.4);
  EXPECT_EQ(rec.realized_valid, 1);
  EXPECT_DOUBLE_EQ(rec.realized_gain, 3.0 / 2.0 - 1.0);
}

TEST(AuditRecorder, MigrationWindowExpiryLeavesRecordUnvalidated) {
  // The destination measurement warms up `warm_at` passes after the
  // migration: inside the 6-pass join window it validates the record, and
  // past it the record was already closed out unvalidated.
  for (const std::uint64_t warm_at : {kMigrationJoinMaxAge,
                                      kMigrationJoinMaxAge + 1}) {
    Loop l;
    l.sense(1, {}, 0.0);
    l.decide(make_decision(1));
    MigrationAuditRecord m;
    m.tid = 5;
    m.src = 0;
    m.dst = 3;
    m.dst_type = 2;
    l.r.record_migration(m, /*src_eff=*/0.0);

    for (std::uint64_t age = 1; age < warm_at; ++age) {
      l.sense(1 + age, {make_obs(5, 0, 0, 1.0, 1.0)}, 0.0);  // cached row
    }
    l.sense(1 + warm_at, {make_obs(5, 3, 2, 3.0, 2.0)}, 0.0);
    const AuditSnapshot snap = l.r.snapshot();
    ASSERT_EQ(snap.migrations.size(), 1u);
    const bool in_window = warm_at <= kMigrationJoinMaxAge;
    EXPECT_EQ(snap.migrations[0].realized_valid, in_window ? 1 : 0)
        << "warm at age " << warm_at;
    EXPECT_DOUBLE_EQ(snap.migrations[0].realized_gain,
                     in_window ? 3.0 / 2.0 : 0.0);
  }
}

TEST(AuditRecorder, MigrationOfExitedThreadIsClosedImmediately) {
  Loop l;
  l.sense(1, {}, 0.0);
  l.decide(make_decision(1));
  MigrationAuditRecord m;
  m.tid = 5;
  m.dst = 3;
  m.dst_type = 2;
  l.r.record_migration(m, /*src_eff=*/0.0);
  l.sense(2, {}, 0.0);  // thread gone
  l.sense(3, {make_obs(5, 3, 2, 3.0, 2.0)}, 0.0);  // reappearance: ignored
  EXPECT_EQ(l.r.snapshot().migrations[0].realized_valid, 0);
}

// --------------------------------------------------------------------------
// Export writer
// --------------------------------------------------------------------------

RunObs audited_run(int run, const std::string& label, double obs_gips) {
  Loop l;
  l.sense(1, {}, 1.0);
  l.decide(make_decision(1, 0.25), {make_pred(7, 2, 0, 1, 1.0, 1.0)});
  MigrationAuditRecord m;
  m.tid = 7;
  m.src = 0;
  m.dst = 2;
  m.src_type = 0;
  m.dst_type = 1;
  l.r.record_migration(m, /*src_eff=*/0.5);
  l.sense(2, {make_obs(7, 2, 1, obs_gips, 1.0)}, 1.5);
  RunObs o;
  o.run = run;
  o.label = label;
  o.audit_enabled = true;
  o.audit = l.r.snapshot();
  return o;
}

std::string render(const std::vector<const RunObs*>& runs) {
  std::ostringstream os;
  write_audit(os, runs);
  return os.str();
}

TEST(AuditWriter, OutputIsIndependentOfRunOrderPassedIn) {
  const RunObs a = audited_run(0, "alpha", 2.0);
  const RunObs b = audited_run(1, "beta", 4.0);
  const std::string fwd = render({&a, &b});
  const std::string rev = render({&b, &a});
  EXPECT_EQ(fwd, rev);  // byte identity: blocks ordered by stamped index
  EXPECT_NE(fwd.find("#run 0 alpha"), std::string::npos);
  EXPECT_NE(fwd.find("#run 1 beta"), std::string::npos);
  EXPECT_LT(fwd.find("#run 0 alpha"), fwd.find("#run 1 beta"));
}

TEST(AuditWriter, HeaderDeclaresSchemaVersionAndColumns) {
  const RunObs a = audited_run(0, "alpha", 2.0);
  const std::string out = render({&a});
  EXPECT_EQ(out.rfind("#sb-audit v2\n", 0), 0u);
  for (const char* cols :
       {audit_thread_columns(), audit_epoch_columns(),
        audit_migration_columns(), audit_drift_columns(),
        audit_state_columns()}) {
    EXPECT_NE(out.find(cols), std::string::npos) << cols;
  }
  EXPECT_NE(out.find("#summary runs=1"), std::string::npos);
  EXPECT_NE(out.find("#counters 0 "), std::string::npos);
}

TEST(AuditWriter, SkipsRunsWithoutTheRecorder) {
  const RunObs a = audited_run(3, "only", 2.0);
  RunObs plain;  // e.g. a metrics-only vanilla run in the same sweep
  plain.run = 1;
  plain.label = "plain";
  const std::string out = render({&plain, &a});
  EXPECT_NE(out.find("#summary runs=1"), std::string::npos);
  EXPECT_EQ(out.find("plain"), std::string::npos);
}

TEST(AuditWriter, RendersIdenticalSnapshotsIdentically) {
  // Same simulated content rendered twice must produce the same bytes —
  // the property the golden/byte-identity integration tests build on.
  const RunObs a1 = audited_run(0, "alpha", 2.0);
  const RunObs a2 = audited_run(0, "alpha", 2.0);
  EXPECT_EQ(render({&a1}), render({&a2}));
}

TEST(AuditWriter, GoldenRowsPinEveryField) {
  // A distinct value in every field of every record kind: a field table
  // that swapped, dropped or retyped one member changes these bytes.
  // Negative ints, uint64s above 2^53 and non-integral doubles all appear.
  RunObs o;
  o.run = 3;
  o.label = "golden";
  o.audit_enabled = true;
  AuditSnapshot& a = o.audit;

  EpochAuditRecord e;
  e.epoch = 18446744073709551615ull;
  e.initial_j = 12.5;
  e.final_j = -0.75;
  e.applied = -1;
  e.pred_dj = 2.25;
  e.realized_j = 3.3;
  e.realized_dj = -4.4;
  e.realized_valid = 7;
  e.regret = 6.6;
  e.migrations = -8;
  e.joined = 9;
  e.unjoined = -10;
  e.healthy_fraction = 0.55;
  e.degraded = -11;
  e.sa_iterations = 12;
  e.sa_accepted_worse = -13;
  e.sa_improved = 14;
  e.faults_injected = -9223372036854775807ll;
  a.epochs.push_back(e);

  ThreadAuditRecord t;
  t.epoch = 9007199254740993ull;  // 2^53 + 1: not representable as double
  t.tid = -4242;
  t.core = -3;
  t.src_type = -2;
  t.dst_type = 5;
  t.pred_gips = 1.25;
  t.obs_gips = -2.5;
  t.pred_w = 0.1;
  t.obs_w = 3.75;
  t.gips_err = -0.125;
  t.power_err = 1e-300;
  t.raw_gips_err = 0.3;
  t.raw_power_err = -1.5e-7;
  a.threads.push_back(t);

  MigrationAuditRecord m;
  m.epoch = 9007199254740995ull;
  m.tid = -15;
  m.src = -16;
  m.dst = 17;
  m.src_type = -18;
  m.dst_type = 19;
  m.pred_gain = -0.0625;
  m.realized_gain = 12345678.875;
  m.realized_valid = -20;
  a.migrations.push_back(m);

  DriftEvent d;
  d.epoch = 9007199254740997ull;
  d.src_type = -21;
  d.dst_type = 22;
  d.metric = -23;
  d.ewma = 0.0001;
  d.joins = 18014398509481985ull;
  a.drift_events.push_back(d);

  DriftState s;
  s.src_type = -24;
  s.dst_type = 25;
  s.joins = 9007199254740999ull;
  s.ewma_gips = 0.7;
  s.ewma_power = -0.9;
  s.active = -26;
  s.ewma_gips_signed = 1.1;
  s.ewma_power_signed = -1.3;
  a.drift_states.push_back(s);

  a.joined = 101;
  a.unjoined = 102;
  a.predictions = 103;
  a.dropped_threads = 1;
  a.dropped_epochs = 2;
  a.dropped_migrations = 4;

  EXPECT_EQ(
      render({&o}),
      "#sb-audit v2\n"
      "#columns thread epoch,tid,core,src_type,dst_type,pred_gips,obs_gips,"
      "pred_w,obs_w,gips_err,power_err,raw_gips_err,raw_power_err\n"
      "#columns epoch epoch,initial_j,final_j,applied,pred_dj,realized_j,"
      "realized_dj,realized_valid,regret,migrations,joined,unjoined,"
      "healthy_fraction,degraded,sa_iterations,sa_accepted_worse,sa_improved,"
      "faults_injected\n"
      "#columns migration epoch,tid,src,dst,src_type,dst_type,pred_gain,"
      "realized_gain,realized_valid\n"
      "#columns drift epoch,src_type,dst_type,metric,ewma,joins\n"
      "#columns state src_type,dst_type,joins,ewma_gips,ewma_power,active,"
      "ewma_gips_signed,ewma_power_signed\n"
      "#run 3 golden\n"
      "epoch,18446744073709551615,12.5,-0.75,-1,2.25,3.3,-4.4,7,6.6,-8,9,-10,"
      "0.55,-11,12,-13,14,-9223372036854775807\n"
      "thread,9007199254740993,-4242,-3,-2,5,1.25,-2.5,0.1,3.75,-0.125,1e-300,"
      "0.3,-1.5e-07\n"
      "migration,9007199254740995,-15,-16,17,-18,19,-0.0625,12345678.875,-20\n"
      "drift,9007199254740997,-21,22,-23,1e-04,18014398509481985\n"
      "state,-24,25,9007199254740999,0.7,-0.9,-26,1.1,-1.3\n"
      "#counters 3 joined=101 unjoined=102 predictions=103 dropped=7\n"
      "#summary runs=1\n");
}

}  // namespace
}  // namespace sb::obs
