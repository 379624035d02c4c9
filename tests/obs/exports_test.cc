#include "obs/exports.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/timeseries.h"

namespace sb::obs {
namespace {

RunObs traced_run(int run) {
  EpochTracer tracer(16);
  tracer.span("sense", 0, 10, 0);
  RunObs r;
  r.run = run;
  r.label = "run" + std::to_string(run);
  r.metrics_enabled = true;
  r.trace_enabled = true;
  r.metrics.counter("epoch.passes").add(static_cast<std::uint64_t>(run) + 1);
  r.trace = tracer.snapshot();
  return r;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

TEST(WriteExports, WritesTheSetPathsAndLogsEachInOrder) {
  const RunObs a = traced_run(0), b = traced_run(1);
  const std::vector<const RunObs*> runs = {&b, &a};
  const std::filesystem::path dir = ::testing::TempDir();
  ExportPaths paths;
  std::ostringstream log;
  write_exports(paths, runs, log);
  EXPECT_EQ(log.str(), "");

  paths.trace = (dir / "exports_trace.json").string();
  paths.metrics = (dir / "exports_metrics.json").string();
  paths.prometheus = (dir / "exports.prom").string();
  write_exports(paths, runs, log);
  EXPECT_EQ(log.str(), "trace written to " + paths.trace +
                           "\nmetrics written to " + paths.metrics +
                           "\nprometheus snapshot written to " +
                           paths.prometheus + "\n");
  std::ostringstream trace, prom;
  write_chrome_trace(trace, runs);
  write_prometheus(prom, runs);
  EXPECT_EQ(read_file(paths.trace), trace.str());
  EXPECT_EQ(read_file(paths.metrics), merge_metrics(runs).to_json() + "\n");
  EXPECT_EQ(read_file(paths.prometheus), prom.str());
}

TEST(WriteExports, AnUnwritablePathThrowsNamingIt) {
  const RunObs a = traced_run(0);
  for (std::string ExportPaths::*field :
       {&ExportPaths::trace, &ExportPaths::audit, &ExportPaths::timeseries,
        &ExportPaths::metrics, &ExportPaths::prometheus}) {
    ExportPaths paths;
    paths.*field = "/nonexistent-dir/export";
    std::ostringstream log;
    try {
      write_exports(paths, {&a}, log);
      ADD_FAILURE() << "no throw";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("/nonexistent-dir/export"),
                std::string::npos)
          << e.what();
    }
    EXPECT_EQ(log.str(), "");
  }
}

}  // namespace
}  // namespace sb::obs
