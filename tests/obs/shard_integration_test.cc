// End-to-end tests for sharded hierarchical balancing riding the full
// simulator: --shards=1 is the default path, bit for bit,
// sharded results are independent of both the intra-epoch worker count and
// the experiment-runner worker count, the shard accounting rides the JSON
// report, and the trace grows the shard.pass/shard.exchange anatomy that
// check_trace.py's nesting checks consume.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "arch/platform.h"
#include "core/shard.h"
#include "core/smart_balance.h"
#include "mini_json.h"
#include "obs/audit_writer.h"
#include "obs/sink.h"
#include "obs/trace.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/runner.h"
#include "sim/simulation.h"

namespace sb::sim {
namespace {

SimulationConfig base_cfg() {
  SimulationConfig cfg;
  cfg.duration = milliseconds(600);
  cfg.seed = 1234;
  return cfg;
}

SimulationResult run_smart(SimulationConfig cfg,
                           core::SmartBalanceConfig sc = {}) {
  const auto platform = arch::Platform::quad_heterogeneous();
  Simulation s(platform, cfg);
  s.set_balancer(smartbalance_factory(sc)(s));
  s.add_mix(5, 2);
  return s.run();
}

void expect_same_numbers(const SimulationResult& a, const SimulationResult& b) {
  EXPECT_EQ(a.instructions, b.instructions);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_DOUBLE_EQ(a.ips_per_watt, b.ips_per_watt);
  EXPECT_DOUBLE_EQ(a.energy_j, b.energy_j);
}

TEST(ShardIntegration, OneShardIsBitIdenticalToUnshardedGoldenPath) {
  // One shard is the default path itself: shards=1 anneals the policy's own
  // problem with the pass seed, so every number matches the default run,
  // no shard accounting is kept, and the JSON report is the default's
  // except for host-clock timings. Any drift here would silently
  // invalidate the fig4a/fig4b/fig5/fig8 goldens' equivalence claim.
  const SimulationResult plain = run_smart(base_cfg());
  core::SmartBalanceConfig sc;
  sc.sharding = core::ShardingConfig::parse("1");
  const SimulationResult one = run_smart(base_cfg(), sc);
  expect_same_numbers(plain, one);
  EXPECT_EQ(one.shards, 0);
  EXPECT_EQ(one.shard_passes, 0u);
  auto without_host_time = [](SimulationResult r) {
    r.avg_sense_us = r.avg_predict_us = r.avg_optimize_us = 0;
    return to_json(r);
  };
  EXPECT_EQ(without_host_time(one), without_host_time(plain));
}

TEST(ShardIntegration, OneShardAuditExportIsByteIdentical) {
  // Beyond the headline numbers: the full prediction-audit flight recorder
  // (every forecast, residual and verdict) must not differ by a byte.
  SimulationConfig cfg = base_cfg();
  cfg.obs.audit = true;
  const SimulationResult plain = run_smart(cfg);
  core::SmartBalanceConfig sc;
  sc.sharding = core::ShardingConfig::parse("1");
  const SimulationResult one = run_smart(cfg, sc);
  ASSERT_NE(plain.obs, nullptr);
  ASSERT_NE(one.obs, nullptr);
  auto dump = [](const SimulationResult& r) {
    std::ostringstream os;
    obs::write_audit(os, {r.obs.get()});
    return os.str();
  };
  EXPECT_EQ(dump(plain), dump(one));
}

TEST(ShardIntegration, ResultsIndependentOfIntraEpochWorkerCount) {
  // sharding.jobs picks how many workers anneal the shards of one epoch in
  // parallel; it must never leak into the simulated numbers.
  auto run = [](int jobs) {
    core::SmartBalanceConfig sc;
    sc.sharding.shards = 2;
    sc.sharding.jobs = jobs;
    return run_smart(base_cfg(), sc);
  };
  const SimulationResult seq = run(1);
  const SimulationResult par = run(8);
  expect_same_numbers(seq, par);
  EXPECT_EQ(seq.shard_passes, par.shard_passes);
  EXPECT_EQ(seq.shard_exchange_moves, par.shard_exchange_moves);
}

TEST(ShardIntegration, ShardAccountingRidesTheJsonReport) {
  core::SmartBalanceConfig sc;
  sc.sharding.shards = 2;
  const SimulationResult r = run_smart(base_cfg(), sc);
  EXPECT_EQ(r.shards, 2);
  EXPECT_GT(r.shard_passes, 0u);

  const auto doc = testjson::parse(to_json(r));
  ASSERT_TRUE(doc.contains("shards"));
  const auto& shards = doc.at("shards");
  EXPECT_EQ(shards.at("count").num(), 2.0);
  EXPECT_EQ(shards.at("passes").num(), static_cast<double>(r.shard_passes));
  EXPECT_EQ(shards.at("exchange_moves").num(),
            static_cast<double>(r.shard_exchange_moves));
  ASSERT_TRUE(shards.contains("avg_exchange_us"));

  // Sharding off: no block (the report stays byte-compatible with PR 6).
  const SimulationResult off = run_smart(base_cfg());
  EXPECT_EQ(to_json(off).find("\"shards\""), std::string::npos);
}

TEST(ShardIntegration, TraceGrowsShardAnatomy) {
  SimulationConfig cfg = base_cfg();
  cfg.obs.metrics = true;
  cfg.obs.trace = true;
  core::SmartBalanceConfig sc;
  sc.sharding.shards = 2;
  const SimulationResult r = run_smart(cfg, sc);
  ASSERT_NE(r.obs, nullptr);

  const auto& m = r.obs->metrics;
  ASSERT_GT(m.counters().count("shard.passes"), 0u);
  EXPECT_GT(m.counters().at("shard.passes").value, 0u);
  EXPECT_GT(m.histograms().at("shard.pass_ns").count(), 0u);
  // The unsharded optimizer never runs, so its counters never appear.
  EXPECT_EQ(m.counters().count("sa.calls"), 0u);

  std::ostringstream os;
  obs::write_chrome_trace(os, {r.obs.get()});
  const auto doc = testjson::parse(os.str());
  int shard_pass = 0, shard_exchange = 0;
  bool args_ok = true;
  for (const auto& ev : doc.at("traceEvents").arr()) {
    if (ev.at("ph").str() != "X") continue;
    const auto& name = ev.at("name").str();
    if (name == "shard.pass") {
      ++shard_pass;
      args_ok = args_ok && ev.contains("args") &&
                ev.at("args").contains("shard") &&
                ev.at("args").contains("worker") &&
                ev.at("args").contains("iterations");
    }
    if (name == "shard.exchange") ++shard_exchange;
  }
  EXPECT_GT(shard_pass, 0);
  EXPECT_GT(shard_exchange, 0);
  EXPECT_TRUE(args_ok) << "shard.pass spans must carry shard/worker/iterations";
}

TEST(ShardIntegration, ShardedBatchExportIsByteIdenticalAcrossRunnerJobs) {
  // The two worker pools compose: ExperimentRunner workers run whole sims
  // in parallel while each sim's sharded epochs fork-join internally; the
  // merged flight-recorder export must still be a pure function of the
  // specs. (The intra-epoch pool is pinned to jobs=2 here so the outer
  // sweep doesn't oversubscribe the host either way.)
  SimulationConfig cfg = base_cfg();
  cfg.duration = milliseconds(300);
  cfg.obs.audit = true;
  core::SmartBalanceConfig sc;
  sc.sharding = core::ShardingConfig::parse("2:2");

  std::vector<ExperimentSpec> specs;
  for (const std::string bench : {"IMB_HTHI", "IMB_MTMI", "bodytrack"}) {
    for (const int per : {2, 4}) {
      ExperimentSpec spec;
      spec.platform = arch::Platform::quad_heterogeneous();
      spec.cfg = cfg;
      spec.workload = [bench, per](Simulation& s) {
        s.add_benchmark(bench, per);
      };
      spec.policy = smartbalance_factory(sc);
      spec.label = bench + "/sharded/" + std::to_string(per);
      specs.push_back(std::move(spec));
    }
  }

  auto merged = [&](int threads) {
    ExperimentRunner::Config rc;
    rc.threads = threads;
    const BatchResult batch = ExperimentRunner(rc).run(specs);
    std::vector<const obs::RunObs*> runs;
    for (const auto& r : batch.runs) {
      EXPECT_TRUE(r.ok()) << r.error;
      if (r.result.obs) runs.push_back(r.result.obs.get());
    }
    std::ostringstream os;
    obs::write_audit(os, runs);
    return os.str();
  };

  const std::string seq = merged(1);
  const std::string par = merged(8);
  EXPECT_EQ(seq, par);
  EXPECT_NE(seq.find("#summary runs=6"), std::string::npos);
}

}  // namespace
}  // namespace sb::sim
