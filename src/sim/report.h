// Machine-readable result reports.
//
// Emits a SimulationResult as JSON (dependency-free writer) so external
// tooling — plotting scripts, regression dashboards, sweep drivers — can
// consume runs without scraping the human-readable tables. `sbsim --json`
// uses this.
#pragma once

#include <iosfwd>
#include <string>

#include "sim/metrics.h"

namespace sb::sim {

/// Serializes the full result (globals, per-core, per-thread, balancer
/// overheads, DVFS/thermal/latency statistics) as a single JSON object.
void write_json(std::ostream& os, const SimulationResult& r);
std::string to_json(const SimulationResult& r);

}  // namespace sb::sim
