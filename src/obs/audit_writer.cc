#include "obs/audit_writer.h"

#include <fstream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/spec.h"
#include "obs/audit.h"

namespace sb::obs {
namespace {

/// One export column: its header name and the record member it prints.
template <class R>
struct Column {
  std::string_view name;
  void (*append)(std::string& line, const R& rec);
};

/// Prints one record member: integers exactly, doubles in shortest
/// round-trip form.
template <auto Member, class R>
void field(std::string& line, const R& rec) {
  const auto value = rec.*Member;
  if constexpr (std::is_floating_point_v<decltype(value)>) {
    spec::append_double(line, value);
  } else {
    spec::append_int(line, value);
  }
}

// Each ledger kind's columns, in export order: a new column is one row.
using T = ThreadAuditRecord;
constexpr Column<T> kThread[] = {
    {"epoch", field<&T::epoch>},
    {"tid", field<&T::tid>},
    {"core", field<&T::core>},
    {"src_type", field<&T::src_type>},
    {"dst_type", field<&T::dst_type>},
    {"pred_gips", field<&T::pred_gips>},
    {"obs_gips", field<&T::obs_gips>},
    {"pred_w", field<&T::pred_w>},
    {"obs_w", field<&T::obs_w>},
    {"gips_err", field<&T::gips_err>},
    {"power_err", field<&T::power_err>},
    {"raw_gips_err", field<&T::raw_gips_err>},
    {"raw_power_err", field<&T::raw_power_err>},
};
using E = EpochAuditRecord;
constexpr Column<E> kEpoch[] = {
    {"epoch", field<&E::epoch>},
    {"initial_j", field<&E::initial_j>},
    {"final_j", field<&E::final_j>},
    {"applied", field<&E::applied>},
    {"pred_dj", field<&E::pred_dj>},
    {"realized_j", field<&E::realized_j>},
    {"realized_dj", field<&E::realized_dj>},
    {"realized_valid", field<&E::realized_valid>},
    {"regret", field<&E::regret>},
    {"migrations", field<&E::migrations>},
    {"joined", field<&E::joined>},
    {"unjoined", field<&E::unjoined>},
    {"healthy_fraction", field<&E::healthy_fraction>},
    {"degraded", field<&E::degraded>},
    {"sa_iterations", field<&E::sa_iterations>},
    {"sa_accepted_worse", field<&E::sa_accepted_worse>},
    {"sa_improved", field<&E::sa_improved>},
    {"faults_injected", field<&E::faults_injected>},
};
using M = MigrationAuditRecord;
constexpr Column<M> kMigration[] = {
    {"epoch", field<&M::epoch>},
    {"tid", field<&M::tid>},
    {"src", field<&M::src>},
    {"dst", field<&M::dst>},
    {"src_type", field<&M::src_type>},
    {"dst_type", field<&M::dst_type>},
    {"pred_gain", field<&M::pred_gain>},
    {"realized_gain", field<&M::realized_gain>},
    {"realized_valid", field<&M::realized_valid>},
};
using D = DriftEvent;
constexpr Column<D> kDrift[] = {
    {"epoch", field<&D::epoch>},
    {"src_type", field<&D::src_type>},
    {"dst_type", field<&D::dst_type>},
    {"metric", field<&D::metric>},
    {"ewma", field<&D::ewma>},
    {"joins", field<&D::joins>},
};
using S = DriftState;
constexpr Column<S> kState[] = {
    {"src_type", field<&S::src_type>},
    {"dst_type", field<&S::dst_type>},
    {"joins", field<&S::joins>},
    {"ewma_gips", field<&S::ewma_gips>},
    {"ewma_power", field<&S::ewma_power>},
    {"active", field<&S::active>},
    {"ewma_gips_signed", field<&S::ewma_gips_signed>},
    {"ewma_power_signed", field<&S::ewma_power_signed>},
};

/// A column table's comma-joined header names, joined once.
template <const auto& kCols>
const char* header() {
  static const std::string joined = [] {
    std::string out;
    for (const auto& c : kCols) {
      if (!out.empty()) out += ',';
      out += c.name;
    }
    return out;
  }();
  return joined.c_str();
}

/// One `<kind>,<field>,...` row per record.
template <class R, std::size_t N>
void write_rows(std::ostream& os, std::string& line, const char* kind,
                const Column<R> (&cols)[N], const std::vector<R>& records) {
  for (const R& rec : records) {
    line = kind;
    for (const Column<R>& c : cols) {
      line += ',';
      c.append(line, rec);
    }
    line += '\n';
    os << line;
  }
}

void write_run(std::ostream& os, const RunObs& run) {
  const AuditSnapshot& a = run.audit;
  std::string line;
  os << "#run " << run.run << ' '
     << (run.label.empty() ? "run" : run.label) << '\n';
  write_rows(os, line, "epoch", kEpoch, a.epochs);
  write_rows(os, line, "thread", kThread, a.threads);
  write_rows(os, line, "migration", kMigration, a.migrations);
  write_rows(os, line, "drift", kDrift, a.drift_events);
  write_rows(os, line, "state", kState, a.drift_states);
  os << "#counters " << run.run << " joined=" << a.joined
     << " unjoined=" << a.unjoined << " predictions=" << a.predictions
     << " dropped="
     << (a.dropped_threads + a.dropped_epochs + a.dropped_migrations)
     << '\n';
}

}  // namespace

const char* audit_thread_columns() { return header<kThread>(); }
const char* audit_epoch_columns() { return header<kEpoch>(); }
const char* audit_migration_columns() { return header<kMigration>(); }
const char* audit_drift_columns() { return header<kDrift>(); }
const char* audit_state_columns() { return header<kState>(); }

void write_audit(std::ostream& os, const std::vector<const RunObs*>& runs) {
  os << "#sb-audit v" << kAuditSchemaVersion << '\n';
  os << "#columns thread " << audit_thread_columns() << '\n';
  os << "#columns epoch " << audit_epoch_columns() << '\n';
  os << "#columns migration " << audit_migration_columns() << '\n';
  os << "#columns drift " << audit_drift_columns() << '\n';
  os << "#columns state " << audit_state_columns() << '\n';
  const auto ordered = ordered_runs(runs, &RunObs::audit_enabled);
  for (const RunObs* r : ordered) write_run(os, *r);
  os << "#summary runs=" << ordered.size() << '\n';
}

void write_audit_file(const std::string& path,
                      const std::vector<const RunObs*>& runs) {
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot open audit export: " + path);
  write_audit(os, runs);
}

}  // namespace sb::obs
