// Fleet-simulation integration tests: the determinism matrix (worker
// counts, policy permutations), job lifecycle invariants and the obs
// contract. Windows are kept short — a 2-node, 200 ms fleet steps in well
// under a second.
#include "fleet/fleet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "arch/platform.h"

namespace sb::fleet {
namespace {

FleetConfig small_cfg(DispatchPolicy policy = DispatchPolicy::kEnergyAware,
                      int nodes = 2) {
  FleetConfig cfg;
  cfg.nodes = nodes;
  cfg.policy = policy;
  cfg.rate_hz = 260.0;
  cfg.duration = milliseconds(200);
  cfg.seed = 77;
  cfg.step_jobs = 1;
  return cfg;
}

std::vector<arch::Platform> quads(int n) {
  return std::vector<arch::Platform>(static_cast<std::size_t>(n),
                                     arch::Platform::quad_heterogeneous());
}

std::string json_of(const FleetResult& r) {
  std::ostringstream os;
  write_fleet_json(os, r);
  return os.str();
}

TEST(NearestRank, MatchesHandComputedRanks) {
  const std::vector<std::uint64_t> s = {50, 10, 40, 20, 30};
  EXPECT_EQ(nearest_rank(s, 0.0), 10u);
  EXPECT_EQ(nearest_rank(s, 0.5), 30u);
  EXPECT_EQ(nearest_rank(s, 0.99), 50u);
  EXPECT_EQ(nearest_rank(s, 1.0), 50u);
  EXPECT_EQ(nearest_rank({}, 0.99), 0u);
}

TEST(LatencyTail, SummarizesSample) {
  std::vector<std::uint64_t> s;
  for (std::uint64_t v = 1; v <= 100; ++v) s.push_back(101 - v);
  const LatencyTail t = tail_of(s);
  EXPECT_EQ(t.count, 100u);
  EXPECT_DOUBLE_EQ(t.mean_ns, 50.5);
  EXPECT_EQ(t.p50_ns, 50u);
  EXPECT_EQ(t.p95_ns, 95u);
  EXPECT_EQ(t.p99_ns, 99u);
  EXPECT_EQ(t.max_ns, 100u);
  EXPECT_EQ(tail_of({}).count, 0u);
}

// The determinism contract behind every BENCH_fleet gate: the whole
// FleetResult — including per-node rollups and exact latency tails — is a
// pure function of (config, platforms, catalog), independent of the
// stepping worker count.
TEST(FleetSimulation, BitIdenticalAcrossWorkerCounts) {
  auto run_with = [](int step_jobs) {
    FleetConfig cfg = small_cfg();
    cfg.step_jobs = step_jobs;
    FleetSimulation fleet(cfg, quads(2));
    return json_of(fleet.run());
  };
  const std::string j1 = run_with(1);
  EXPECT_EQ(j1, run_with(4));
  EXPECT_EQ(j1, run_with(0));  // 0 = auto (SB_JOBS / hardware concurrency)
}

TEST(FleetSimulation, MalformedSbJobsWarnsOnce) {
  // The stepping worker count is resolved when the fleet is built, not per
  // 5 ms quantum: a malformed SB_JOBS is reported once per fleet.
  const char* old = std::getenv("SB_JOBS");
  const std::string saved = old != nullptr ? old : "";
  ::setenv("SB_JOBS", "abc", 1);
  FleetConfig cfg = small_cfg();
  cfg.step_jobs = 0;
  testing::internal::CaptureStderr();
  FleetSimulation(cfg, quads(2)).run();
  const std::string err = testing::internal::GetCapturedStderr();
  if (old != nullptr) {
    ::setenv("SB_JOBS", saved.c_str(), 1);
  } else {
    ::unsetenv("SB_JOBS");
  }
  int warnings = 0;
  for (auto pos = err.find("SB_JOBS"); pos != std::string::npos;
       pos = err.find("SB_JOBS", pos + 1)) {
    ++warnings;
  }
  EXPECT_EQ(warnings, 1) << err;
}

TEST(FleetSimulation, ArrivalStreamIdenticalAcrossPolicies) {
  auto jobs_under = [](DispatchPolicy policy) {
    FleetSimulation fleet(small_cfg(policy), quads(2));
    return fleet.run().jobs;
  };
  const auto rr = jobs_under(DispatchPolicy::kRoundRobin);
  const auto energy = jobs_under(DispatchPolicy::kEnergyAware);
  ASSERT_EQ(rr.size(), energy.size());
  ASSERT_GT(rr.size(), 10u);
  for (std::size_t i = 0; i < rr.size(); ++i) {
    // Same jobs, same arrival instants, same classes: the policies differ
    // only in where (and when) each job is placed.
    EXPECT_EQ(rr[i].id, energy[i].id);
    EXPECT_EQ(rr[i].arrival, energy[i].arrival);
    EXPECT_EQ(rr[i].job_class, energy[i].job_class);
  }
}

TEST(FleetSimulation, JobLifecycleOrderingHolds) {
  FleetSimulation fleet(small_cfg(), quads(2));
  const FleetResult r = fleet.run();
  EXPECT_GT(r.jobs_arrived, 0u);
  EXPECT_GT(r.jobs_completed, 0u);
  EXPECT_EQ(r.jobs.size(), r.jobs_arrived);
  for (const JobRecord& j : r.jobs) {
    if (j.admitted == kTimeNever) {
      EXPECT_EQ(j.node, -1);
      continue;
    }
    ASSERT_GE(j.node, 0);
    ASSERT_LT(j.node, r.nodes);
    EXPECT_GE(j.admitted, j.arrival);
    if (j.first_run != kTimeNever) {
      EXPECT_GE(j.first_run, j.admitted);
    }
    if (j.completed != kTimeNever) {
      ASSERT_NE(j.first_run, kTimeNever);
      EXPECT_GE(j.completed, j.first_run);
    }
  }
  EXPECT_EQ(r.queue.count, r.jobs_dispatched);
  EXPECT_EQ(r.sojourn.count, r.jobs_completed);
  EXPECT_GT(r.instructions, 0u);
  EXPECT_GT(r.energy_j, 0.0);
  EXPECT_NEAR(r.je_inst_per_joule,
              static_cast<double>(r.instructions) / r.energy_j, 1e-6);
}

// Nodes free each job thread's Task when it exits, yet every forked thread
// keeps its result row, and a completed job's rows agree with its record.
TEST(FleetSimulation, CompletedJobsKeepPerThreadRows) {
  FleetSimulation fleet(small_cfg(), quads(2));
  const FleetResult r = fleet.run();
  const std::vector<JobClass>& catalog = fleet.catalog();
  // Nodes admit jobs in id order (the fleet queue is FIFO) and fork each
  // job's threads as consecutive tids.
  std::vector<std::size_t> forked(r.node_results.size(), 0);
  int completed = 0;
  for (const JobRecord& j : r.jobs) {
    if (j.node < 0) continue;
    const auto node = static_cast<std::size_t>(j.node);
    const JobClass& jc =
        catalog[static_cast<std::size_t>(j.job_class) % catalog.size()];
    const std::size_t first = forked[node];
    forked[node] += static_cast<std::size_t>(jc.threads);
    const auto& rows = r.node_results[node].threads;
    ASSERT_LE(forked[node], rows.size());
    if (j.completed == kTimeNever) continue;
    ++completed;
    TimeNs last_exit = 0;
    for (std::size_t i = first; i < forked[node]; ++i) {
      const sim::ThreadMetrics& row = rows[i];
      EXPECT_EQ(row.tid, static_cast<ThreadId>(i));
      EXPECT_EQ(row.name.rfind(jc.benchmark + "/", 0), 0u) << row.name;
      EXPECT_TRUE(row.completed) << row.name;
      EXPECT_EQ(row.instructions, jc.per_thread_instructions) << row.name;
      last_exit = std::max(last_exit, row.completion_time);
    }
    EXPECT_EQ(last_exit, j.completed) << "job " << j.id;
  }
  EXPECT_GT(completed, 10);
  // One row per forked thread, exited or not.
  for (std::size_t n = 0; n < r.node_results.size(); ++n) {
    EXPECT_EQ(r.node_results[n].threads.size(), forked[n]) << "node " << n;
  }
}

TEST(FleetSimulation, HeterogeneousShapesAndReplication) {
  // Explicit per-node shapes…
  FleetSimulation hetero(small_cfg(),
                         {arch::Platform::quad_heterogeneous(),
                          arch::Platform::octa_big_little()});
  const FleetResult r = hetero.run();
  ASSERT_EQ(r.node_results.size(), 2u);
  EXPECT_GT(r.node_results[1].instructions, 0u);
  // …or one platform replicated; anything else is a shape mismatch.
  EXPECT_NO_THROW(FleetSimulation(small_cfg(), quads(1)));
  EXPECT_THROW(FleetSimulation(small_cfg(), quads(3)), std::invalid_argument);
  EXPECT_THROW(FleetSimulation(small_cfg(), {}), std::invalid_argument);
}

TEST(FleetSimulation, VanillaNodePolicyCompletesJobs) {
  FleetConfig cfg = small_cfg(DispatchPolicy::kLeastLoaded);
  cfg.node_policy = "vanilla";
  FleetSimulation fleet(cfg, quads(2));
  const FleetResult r = fleet.run();
  EXPECT_EQ(r.node_policy, "vanilla");
  EXPECT_GT(r.jobs_completed, 0u);
}

TEST(FleetSimulation, RunTwiceThrows) {
  FleetSimulation fleet(small_cfg(), quads(2));
  fleet.run();
  EXPECT_THROW(fleet.run(), std::logic_error);
}

TEST(FleetSimulation, CatalogValidation) {
  EXPECT_THROW(FleetSimulation(small_cfg(), quads(2), {}),
               std::invalid_argument);
  EXPECT_THROW(FleetSimulation(small_cfg(), quads(2),
                               {{"not-a-benchmark", 1, 1000}}),
               std::out_of_range);
  EXPECT_THROW(
      FleetSimulation(small_cfg(), quads(2), {{"blackscholes", 0, 1000}}),
      std::invalid_argument);
  EXPECT_THROW(FleetSimulation(small_cfg(), quads(2), {{"blackscholes", 1, 0}}),
               std::invalid_argument);
}

TEST(FleetSimulation, ObsContract) {
  FleetConfig cfg = small_cfg();
  cfg.obs.trace = true;
  cfg.obs.metrics = true;
  cfg.node_obs = true;
  FleetSimulation fleet(cfg, quads(2));
  const FleetResult r = fleet.run();

  ASSERT_NE(r.obs, nullptr);
  EXPECT_EQ(r.obs->run, 0);
  const auto& counters = r.obs->metrics.counters();
  ASSERT_TRUE(counters.count("fleet.jobs.arrived"));
  EXPECT_EQ(counters.at("fleet.jobs.arrived").value, r.jobs_arrived);
  EXPECT_EQ(counters.at("fleet.jobs.dispatched").value, r.jobs_dispatched);
  EXPECT_EQ(counters.at("fleet.jobs.completed").value, r.jobs_completed);
  const auto& hists = r.obs->metrics.histograms();
  ASSERT_TRUE(hists.count("fleet.job.queue_ns"));
  EXPECT_EQ(hists.at("fleet.job.queue_ns").count(), r.jobs_dispatched);

  // One fleet.quantum span per 5 ms quantum of the 200 ms window.
  std::size_t quanta = 0, dispatches = 0;
  for (const auto& ev : r.obs->trace.events) {
    const auto name = r.obs->trace.name_of(ev.name);
    if (name == "fleet.quantum") ++quanta;
    if (name == "fleet.dispatch") ++dispatches;
  }
  EXPECT_EQ(quanta, 40u);
  EXPECT_EQ(dispatches, r.jobs_dispatched);

  // Per-node registries ride along, pid-stamped after the fleet (run 0).
  ASSERT_EQ(r.node_obs.size(), 2u);
  EXPECT_EQ(r.node_obs[0]->run, 1);
  EXPECT_EQ(r.node_obs[1]->run, 2);
}

TEST(FleetSimulation, ObsOffKeepsResultLean) {
  FleetSimulation fleet(small_cfg(), quads(2));
  const FleetResult r = fleet.run();
  EXPECT_EQ(r.obs, nullptr);
  EXPECT_TRUE(r.node_obs.empty());
}

}  // namespace
}  // namespace sb::fleet
