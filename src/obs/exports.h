// One writer for the export files a run set produces. sbsim and the bench
// harnesses collect their runs' RunObs snapshots and hand them here with
// the paths their flags name, so the front ends keep no writing logic of
// their own. The trace, audit and timeseries exports each select the runs
// that recorded them; the metrics JSON and the Prometheus snapshot read
// every run's registry.
#pragma once

#include <ostream>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace sb::obs {

/// Where each export goes; an empty path writes nothing.
struct ExportPaths {
  std::string trace;       ///< Chrome trace-event JSON of the traced runs
  std::string audit;       ///< `#sb-audit` packed CSV of the audited runs
  std::string timeseries;  ///< `#sb-tsdb` export (.json: JSON rendering)
  std::string metrics;     ///< every run's metrics registry, merged, as JSON
  std::string prometheus;  ///< text-exposition snapshot of the registries
};

/// Writes every export whose path is set, in the order above, and logs one
/// "<kind> written to <path>" line per file to `log`. Throws
/// std::runtime_error naming the first path that cannot be opened.
void write_exports(const ExportPaths& paths,
                   const std::vector<const RunObs*>& runs, std::ostream& log);

}  // namespace sb::obs
