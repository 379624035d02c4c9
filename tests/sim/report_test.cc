#include "sim/report.h"

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string_view>

#include "obs/store.h"
#include "os/vanilla_balancer.h"
#include "sim/simulation.h"

namespace sb::sim {
namespace {

/// Minimal structural JSON validation (balanced delimiters outside strings,
/// legal escapes) — enough to catch writer bugs without a JSON dependency.
bool structurally_valid_json(const std::string& s) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip escaped char
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') {
      if (--depth < 0) return false;
    }
  }
  return depth == 0 && !in_string;
}

SimulationResult sample_result() {
  SimulationConfig cfg;
  cfg.duration = milliseconds(120);
  cfg.thermal_enabled = true;
  Simulation s(arch::Platform::quad_heterogeneous(), cfg);
  s.set_balancer(std::make_unique<os::VanillaBalancer>());
  s.add_benchmark("ferret", 3);
  return s.run();
}

TEST(Report, StructurallyValidAndComplete) {
  const std::string json = to_json(sample_result());
  EXPECT_TRUE(structurally_valid_json(json)) << json.substr(0, 200);
  for (const char* key :
       {"\"policy\"", "\"instructions\"", "\"energy_j\"", "\"ips_per_watt\"",
        "\"cores\"", "\"threads\"", "\"balancer_overhead_us\"",
        "\"thermal\"", "\"avg_sched_latency_us\"", "\"utilization\""}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // 4 core objects and 3 thread objects.
  std::size_t cores = 0, pos = 0;
  while ((pos = json.find("\"type\":", pos)) != std::string::npos) {
    ++cores;
    ++pos;
  }
  EXPECT_EQ(cores, 4u);
}

TEST(Report, EscapesStrings) {
  // The report writes every string through obs::json_string.
  const auto quoted = [](std::string_view s) {
    std::ostringstream os;
    obs::json_string(os, s);
    return os.str();
  };
  EXPECT_EQ(quoted("plain"), "\"plain\"");
  EXPECT_EQ(quoted("say \"hi\""), "\"say \\\"hi\\\"\"");
  EXPECT_EQ(quoted("a\\b"), "\"a\\\\b\"");
  EXPECT_EQ(quoted("line\nbreak\ttab"), "\"line\\u000abreak\\u0009tab\"");
  EXPECT_EQ(quoted(std::string(1, '\x01')), "\"\\u0001\"");
  SimulationResult r;
  r.label = "a\"b";
  EXPECT_NE(to_json(r).find("\"label\":\"a\\\"b\""), std::string::npos);
}

TEST(Report, NonFiniteBecomesNull) {
  SimulationResult r;
  r.label = "x";
  r.ips = std::numeric_limits<double>::infinity();
  const std::string json = to_json(r);
  EXPECT_NE(json.find("\"ips\":null"), std::string::npos);
  EXPECT_TRUE(structurally_valid_json(json));
}

TEST(Report, EmptyResultStillValid) {
  const std::string json = to_json(SimulationResult{});
  EXPECT_TRUE(structurally_valid_json(json));
  EXPECT_NE(json.find("\"cores\":[]"), std::string::npos);
  EXPECT_NE(json.find("\"threads\":[]"), std::string::npos);
  EXPECT_EQ(json.find("\"thermal\""), std::string::npos)
      << "thermal block only present when enabled";
}

}  // namespace
}  // namespace sb::sim
