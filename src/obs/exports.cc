#include "obs/exports.h"

#include <fstream>
#include <stdexcept>

#include "obs/audit_writer.h"
#include "obs/timeseries.h"

namespace sb::obs {

namespace {

void write_metrics_file(const std::string& path,
                        const std::vector<const RunObs*>& runs) {
  std::ofstream os(path);
  if (!os) throw std::runtime_error("cannot write metrics file " + path);
  merge_metrics(runs).write_json(os);
  os << '\n';
}

}  // namespace

void write_exports(const ExportPaths& paths,
                   const std::vector<const RunObs*>& runs, std::ostream& log) {
  using Writer = void (*)(const std::string&,
                          const std::vector<const RunObs*>&);
  const struct {
    const std::string& path;
    const char* kind;
    Writer write;
  } exports[] = {
      {paths.trace, "trace", write_chrome_trace_file},
      {paths.audit, "audit export", write_audit_file},
      {paths.timeseries, "timeseries", write_timeseries_file},
      {paths.metrics, "metrics", write_metrics_file},
      {paths.prometheus, "prometheus snapshot", write_prometheus_file},
  };
  for (const auto& e : exports) {
    if (e.path.empty()) continue;
    e.write(e.path, runs);
    log << e.kind << " written to " << e.path << '\n';
  }
}

}  // namespace sb::obs
