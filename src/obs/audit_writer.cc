#include "obs/audit_writer.h"

#include <algorithm>
#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string>

#include "common/spec.h"
#include "obs/audit.h"

namespace sb::obs {
namespace {

constexpr char kThreadCols[] =
    "epoch,tid,core,src_type,dst_type,pred_gips,obs_gips,pred_w,obs_w,"
    "gips_err,power_err,raw_gips_err,raw_power_err";
constexpr char kEpochCols[] =
    "epoch,initial_j,final_j,applied,pred_dj,realized_j,realized_dj,"
    "realized_valid,regret,migrations,joined,unjoined,healthy_fraction,"
    "degraded,sa_iterations,sa_accepted_worse,sa_improved,faults_injected";
constexpr char kMigrationCols[] =
    "epoch,tid,src,dst,src_type,dst_type,pred_gain,realized_gain,"
    "realized_valid";
constexpr char kDriftCols[] = "epoch,src_type,dst_type,metric,ewma,joins";
constexpr char kStateCols[] =
    "src_type,dst_type,joins,ewma_gips,ewma_power,active,"
    "ewma_gips_signed,ewma_power_signed";

using spec::append_double;
using spec::append_int;

void write_run(std::ostream& os, const RunObs& run) {
  const AuditSnapshot& a = run.audit;
  std::string line;
  os << "#run " << run.run << ' '
     << (run.label.empty() ? "run" : run.label) << '\n';
  for (const EpochAuditRecord& r : a.epochs) {
    line = "epoch,";
    append_int(line, r.epoch);
    line += ',';
    append_double(line, r.initial_j);
    line += ',';
    append_double(line, r.final_j);
    line += ',';
    append_int(line, r.applied);
    line += ',';
    append_double(line, r.pred_dj);
    line += ',';
    append_double(line, r.realized_j);
    line += ',';
    append_double(line, r.realized_dj);
    line += ',';
    append_int(line, r.realized_valid);
    line += ',';
    append_double(line, r.regret);
    line += ',';
    append_int(line, r.migrations);
    line += ',';
    append_int(line, r.joined);
    line += ',';
    append_int(line, r.unjoined);
    line += ',';
    append_double(line, r.healthy_fraction);
    line += ',';
    append_int(line, r.degraded);
    line += ',';
    append_int(line, r.sa_iterations);
    line += ',';
    append_int(line, r.sa_accepted_worse);
    line += ',';
    append_int(line, r.sa_improved);
    line += ',';
    append_int(line, r.faults_injected);
    line += '\n';
    os << line;
  }
  for (const ThreadAuditRecord& r : a.threads) {
    line = "thread,";
    append_int(line, r.epoch);
    line += ',';
    append_int(line, r.tid);
    line += ',';
    append_int(line, r.core);
    line += ',';
    append_int(line, r.src_type);
    line += ',';
    append_int(line, r.dst_type);
    line += ',';
    append_double(line, r.pred_gips);
    line += ',';
    append_double(line, r.obs_gips);
    line += ',';
    append_double(line, r.pred_w);
    line += ',';
    append_double(line, r.obs_w);
    line += ',';
    append_double(line, r.gips_err);
    line += ',';
    append_double(line, r.power_err);
    line += ',';
    append_double(line, r.raw_gips_err);
    line += ',';
    append_double(line, r.raw_power_err);
    line += '\n';
    os << line;
  }
  for (const MigrationAuditRecord& r : a.migrations) {
    line = "migration,";
    append_int(line, r.epoch);
    line += ',';
    append_int(line, r.tid);
    line += ',';
    append_int(line, r.src);
    line += ',';
    append_int(line, r.dst);
    line += ',';
    append_int(line, r.src_type);
    line += ',';
    append_int(line, r.dst_type);
    line += ',';
    append_double(line, r.pred_gain);
    line += ',';
    append_double(line, r.realized_gain);
    line += ',';
    append_int(line, r.realized_valid);
    line += '\n';
    os << line;
  }
  for (const DriftEvent& r : a.drift_events) {
    line = "drift,";
    append_int(line, r.epoch);
    line += ',';
    append_int(line, r.src_type);
    line += ',';
    append_int(line, r.dst_type);
    line += ',';
    append_int(line, r.metric);
    line += ',';
    append_double(line, r.ewma);
    line += ',';
    append_int(line, r.joins);
    line += '\n';
    os << line;
  }
  for (const DriftState& r : a.drift_states) {
    line = "state,";
    append_int(line, r.src_type);
    line += ',';
    append_int(line, r.dst_type);
    line += ',';
    append_int(line, r.joins);
    line += ',';
    append_double(line, r.ewma_gips);
    line += ',';
    append_double(line, r.ewma_power);
    line += ',';
    append_int(line, r.active);
    line += ',';
    append_double(line, r.ewma_gips_signed);
    line += ',';
    append_double(line, r.ewma_power_signed);
    line += '\n';
    os << line;
  }
  os << "#counters " << run.run << " joined=" << a.joined
     << " unjoined=" << a.unjoined << " predictions=" << a.predictions
     << " dropped="
     << (a.dropped_threads + a.dropped_epochs + a.dropped_migrations)
     << '\n';
}

}  // namespace

const char* audit_thread_columns() { return kThreadCols; }
const char* audit_epoch_columns() { return kEpochCols; }
const char* audit_migration_columns() { return kMigrationCols; }
const char* audit_drift_columns() { return kDriftCols; }
const char* audit_state_columns() { return kStateCols; }

void write_audit(std::ostream& os, const std::vector<const RunObs*>& runs) {
  os << "#sb-audit v" << kAuditSchemaVersion << '\n';
  os << "#columns thread " << kThreadCols << '\n';
  os << "#columns epoch " << kEpochCols << '\n';
  os << "#columns migration " << kMigrationCols << '\n';
  os << "#columns drift " << kDriftCols << '\n';
  os << "#columns state " << kStateCols << '\n';
  std::vector<const RunObs*> ordered;
  ordered.reserve(runs.size());
  for (const RunObs* r : runs) {
    if (r != nullptr && r->audit_enabled) ordered.push_back(r);
  }
  std::stable_sort(ordered.begin(), ordered.end(),
                   [](const RunObs* a, const RunObs* b) {
                     return a->run < b->run;
                   });
  int exported = 0;
  for (const RunObs* r : ordered) {
    write_run(os, *r);
    ++exported;
  }
  os << "#summary runs=" << exported << '\n';
}

void write_audit_file(const std::string& path,
                      const std::vector<const RunObs*>& runs) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open audit export: " + path);
  write_audit(os, runs);
}

}  // namespace sb::obs
