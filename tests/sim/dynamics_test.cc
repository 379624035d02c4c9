// Tests for the simulation extensions: thermal sampling, tracing, deferred
// thread arrivals, and DVFS plumbed through the façade.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>

#include "os/dvfs_governor.h"
#include "os/vanilla_balancer.h"
#include "sim/experiment.h"
#include "sim/simulation.h"

namespace sb::sim {
namespace {

SimulationConfig quick_cfg(TimeNs duration = milliseconds(150)) {
  SimulationConfig cfg;
  cfg.duration = duration;
  return cfg;
}

TEST(Thermal, SimulationReportsTemperatures) {
  auto cfg = quick_cfg(milliseconds(300));
  cfg.thermal_enabled = true;
  Simulation s(arch::Platform::quad_heterogeneous(), cfg);
  s.set_balancer(std::make_unique<os::VanillaBalancer>());
  s.add_benchmark("swaptions", 4);
  const auto r = s.run();
  ASSERT_EQ(r.final_temp_c.size(), 4u);
  EXPECT_GT(r.max_temp_c, power::ThermalModel::Config{}.ambient_c + 1.0);
  // The Huge core runs the hottest when loaded evenly.
  EXPECT_GT(r.final_temp_c[0], r.final_temp_c[3]);
}

TEST(Thermal, DisabledLeavesMetricsEmpty) {
  Simulation s(arch::Platform::quad_heterogeneous(), quick_cfg());
  s.add_benchmark("vips", 2);
  const auto r = s.run();
  EXPECT_TRUE(r.final_temp_c.empty());
  EXPECT_EQ(r.max_temp_c, 0.0);
}

TEST(Trace, WritesLongFormatCsv) {
  const std::string path = "test_trace_tmp.csv";
  auto cfg = quick_cfg();
  cfg.trace_path = path;
  cfg.thermal_enabled = true;
  {
    Simulation s(arch::Platform::quad_heterogeneous(), cfg);
    s.set_balancer(std::make_unique<os::VanillaBalancer>());
    s.add_benchmark("ferret", 4);
    s.run();
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "time_ms,core,power_w,temp_c,nr_running,freq_mhz");
  int rows = 0;
  for (std::string line; std::getline(in, line);) ++rows;
  // 150 ms / 5 ms samples × 4 cores = 120 rows.
  EXPECT_EQ(rows, 120);
  in.close();
  std::remove(path.c_str());
}

TEST(Arrivals, DeferredBenchmarkForksAtTime) {
  Simulation s(arch::Platform::quad_heterogeneous(), quick_cfg());
  s.set_balancer(std::make_unique<os::VanillaBalancer>());
  s.add_benchmark("swaptions", 2);
  s.add_benchmark_at(milliseconds(60), "canneal", 2);
  const auto r = s.run();
  ASSERT_EQ(r.threads.size(), 4u);
  // Late arrivals ran for at most the remaining window.
  EXPECT_GT(r.threads[2].runtime, 0);
  EXPECT_LT(r.threads[2].runtime, milliseconds(95));
  EXPECT_EQ(s.kernel().task(2).arrived_at, milliseconds(60));
}

TEST(Arrivals, ArrivalDueAtStartForksBeforeTheFirstStep) {
  // An arrival at t = 0 forks at 0 and runs for the whole window, like
  // add_benchmark, both through run() and in service mode.
  const TimeNs window = quick_cfg().duration;
  for (const bool service : {false, true}) {
    Simulation s(arch::Platform::quad_heterogeneous(), quick_cfg());
    s.set_balancer(std::make_unique<os::VanillaBalancer>());
    s.add_benchmark_at(0, "vips", 1);
    SimulationResult r;
    if (service) {
      s.begin_service();
      s.advance_service(window);
      r = s.finish_service();
    } else {
      r = s.run();
    }
    ASSERT_EQ(r.threads.size(), 1u) << "service=" << service;
    EXPECT_EQ(s.kernel().record(0).arrived_at, 0) << "service=" << service;
    EXPECT_EQ(r.threads[0].runtime, window) << "service=" << service;
  }
}

TEST(Arrivals, ValidatesNameEagerly) {
  Simulation s(arch::Platform::quad_heterogeneous(), quick_cfg());
  EXPECT_THROW(s.add_benchmark_at(milliseconds(10), "bogus", 2),
               std::out_of_range);
}

TEST(Arrivals, SmartBalanceAdaptsToArrival) {
  // A memory hog lands on the platform mid-run; SmartBalance must not
  // leave it wherever fork placed it if that placement is poor.
  auto cfg = quick_cfg(milliseconds(500));
  Simulation s(arch::Platform::quad_heterogeneous(), cfg);
  s.set_balancer(smartbalance_factory()(s));
  s.add_benchmark("swaptions", 2);
  s.add_benchmark_at(milliseconds(120), "canneal", 2);
  const auto r = s.run();
  EXPECT_EQ(r.threads.size(), 4u);
  // The canneal threads must have been characterized and placed off the
  // Huge core by the end.
  for (ThreadId tid : s.kernel().alive_threads()) {
    const auto& t = s.kernel().task(tid);
    if (t.name.rfind("canneal", 0) == 0) {
      EXPECT_NE(t.cpu, 0) << t.name << " left on the Huge core";
    }
  }
}

TEST(Dvfs, FacadePlumbing) {
  auto cfg = quick_cfg(milliseconds(300));
  cfg.kernel.enable_dvfs = true;
  Simulation s(arch::Platform::quad_heterogeneous(), cfg);
  s.set_balancer(std::make_unique<os::VanillaBalancer>());
  s.kernel().set_governor(std::make_unique<os::OndemandGovernor>());
  s.add_benchmark("IMB_LTHI", 2);  // light load: governor should downshift
  const auto r = s.run();
  EXPECT_GT(r.dvfs_transitions, 0u);
}

}  // namespace
}  // namespace sb::sim
