#include "fleet/fleet_config.h"

#include <stdexcept>

#include "common/spec.h"

namespace sb::fleet {

namespace {

/// Every accepted policy spelling, canonical names first; spelling i names
/// DispatchPolicy i % kPolicies.
constexpr int kPolicies = 3;
constexpr std::string_view kPolicyNames[] = {
    "rr",          "least",        "energy",
    "roundrobin",  "leastloaded",  "energyaware",
    "round-robin", "least-loaded", "energy-aware"};

// N[:policy[:rate]]; defaults match FleetConfig.
constexpr spec::Field kFields[] = {
    {"nodes", spec::Kind::kInt, 1, 1024},
    {.name = "policy",
     .kind = spec::Kind::kEnum,
     .def = static_cast<double>(DispatchPolicy::kEnergyAware),
     .names = kPolicyNames},
    {"rate", spec::Kind::kReal, 0, 1e7, 300.0, spec::Range::kOpenLow},
};

DispatchPolicy policy_of(double spelling) {
  return static_cast<DispatchPolicy>(static_cast<int>(spelling) % kPolicies);
}

}  // namespace

DispatchPolicy dispatch_policy_from(const std::string& name) {
  return policy_of(spec::read_field("--fleet", kFields[1], name));
}

FleetConfig FleetConfig::parse(const std::string& text) {
  FleetConfig cfg;
  double v[] = {0, static_cast<double>(cfg.policy), cfg.rate_hz};
  spec::read_fields("--fleet", kFields, spec::split(text, ':'), v);
  cfg.nodes = static_cast<int>(v[0]);
  cfg.policy = policy_of(v[1]);
  cfg.rate_hz = v[2];
  cfg.validate();
  return cfg;
}

std::string FleetConfig::canonical() const {
  std::string out;
  spec::append_fields(out, kFields,
                      {static_cast<double>(nodes),
                       static_cast<double>(policy), rate_hz});
  return out;
}

void FleetConfig::validate() const {
  if (nodes < 1 || nodes > 1024) {
    throw std::invalid_argument("FleetConfig: nodes out of [1, 1024]");
  }
  if (!(rate_hz > 0) || !(rate_hz <= 1e7)) {
    throw std::invalid_argument("FleetConfig: rate_hz out of (0, 1e7]");
  }
  if (duration <= 0) {
    throw std::invalid_argument("FleetConfig: duration must be > 0");
  }
  if (quantum <= 0 || quantum > duration) {
    throw std::invalid_argument("FleetConfig: quantum out of (0, duration]");
  }
  if (node_policy != "smartbalance" && node_policy != "vanilla") {
    throw std::invalid_argument(
        "FleetConfig: node_policy must be smartbalance or vanilla");
  }
  if (!(load_cap >= 0.5) || !(load_cap <= 64.0)) {
    throw std::invalid_argument("FleetConfig: load_cap out of [0.5, 64]");
  }
  if (consolidation_bias < 0 || consolidation_bias > 10.0) {
    throw std::invalid_argument(
        "FleetConfig: consolidation_bias out of [0, 10]");
  }
  if (obs.audit) {
    throw std::invalid_argument(
        "FleetConfig: obs.audit has no fleet balancer to audit");
  }
}

}  // namespace sb::fleet
