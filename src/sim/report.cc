#include "sim/report.h"

#include <cmath>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "obs/store.h"
#include "obs/trace.h"

namespace sb::sim {

using obs::json_number;
using obs::json_string;

void write_json(std::ostream& os, const SimulationResult& r) {
  os << std::setprecision(12);
  os << "{";
  os << "\"label\":";
  json_string(os, r.label);
  os << ",\"policy\":";
  json_string(os, r.policy);
  os << ",\"simulated_ms\":";
  json_number(os, to_millis(r.simulated));
  os << ",\"instructions\":" << r.instructions;
  os << ",\"energy_j\":";
  json_number(os, r.energy_j);
  os << ",\"ips\":";
  json_number(os, r.ips);
  os << ",\"watts\":";
  json_number(os, r.watts);
  os << ",\"ips_per_watt\":";
  json_number(os, r.ips_per_watt);
  os << ",\"migrations\":" << r.migrations;
  os << ",\"context_switches\":" << r.context_switches;
  os << ",\"balance_passes\":" << r.balance_passes;
  os << ",\"dvfs_transitions\":" << r.dvfs_transitions;
  os << ",\"avg_sched_latency_us\":";
  json_number(os, r.avg_sched_latency_us);
  os << ",\"max_sched_latency_us\":";
  json_number(os, r.max_sched_latency_us);

  os << ",\"balancer_overhead_us\":{\"sense\":";
  json_number(os, r.avg_sense_us);
  os << ",\"predict\":";
  json_number(os, r.avg_predict_us);
  os << ",\"optimize\":";
  json_number(os, r.avg_optimize_us);
  os << ",\"migrations_per_pass\":";
  json_number(os, r.avg_migrations_per_pass);
  os << "}";

  // Fault block only when something actually happened — clean runs keep
  // byte-identical reports.
  if (r.faults_injected || r.faults_detected || r.faults_absorbed ||
      r.degraded_passes || r.migrations_rejected || r.migrations_deferred) {
    os << ",\"faults\":{\"injected\":" << r.faults_injected
       << ",\"detected\":" << r.faults_detected
       << ",\"absorbed\":" << r.faults_absorbed
       << ",\"degraded_passes\":" << r.degraded_passes
       << ",\"migrations_rejected\":" << r.migrations_rejected
       << ",\"migrations_deferred\":" << r.migrations_deferred
       << ",\"healthy_fraction\":";
    json_number(os, r.healthy_fraction);
    os << "}";
  }

  // Latency block only when a wake ever happened — purely CPU-bound runs
  // (no interactive tasks) keep byte-identical reports. Percentiles are
  // exact nearest-rank over every wake→first-dispatch delta.
  if (r.wake_to_run.count > 0) {
    os << ",\"latency\":{\"wakes\":" << r.wake_to_run.count
       << ",\"mean_us\":";
    json_number(os, r.wake_to_run.mean_ns / 1e3);
    os << ",\"p50_us\":";
    json_number(os, static_cast<double>(r.wake_to_run.p50_ns) / 1e3);
    os << ",\"p95_us\":";
    json_number(os, static_cast<double>(r.wake_to_run.p95_ns) / 1e3);
    os << ",\"p99_us\":";
    json_number(os, static_cast<double>(r.wake_to_run.p99_ns) / 1e3);
    os << ",\"max_us\":";
    json_number(os, static_cast<double>(r.wake_to_run.max_ns) / 1e3);
    os << "}";
  }

  // Shards block only when K > 1 shards ran — one shard keeps no shard
  // accounting, so default reports keep their bytes.
  if (r.shards > 0) {
    os << ",\"shards\":{\"count\":" << r.shards
       << ",\"passes\":" << r.shard_passes
       << ",\"exchange_moves\":" << r.shard_exchange_moves
       << ",\"avg_exchange_us\":";
    json_number(os, r.avg_exchange_us);
    os << "}";
  }

  // Metrics block only when observability collected something — default
  // runs keep byte-identical reports.
  if (r.obs && r.obs->metrics_enabled && !r.obs->metrics.empty()) {
    os << ",\"metrics\":";
    r.obs->metrics.write_json(os);
  }

  // Audit block only when the flight recorder ran — same bit-identity rule.
  if (r.obs && r.obs->audit_enabled) {
    const obs::AuditSnapshot& a = r.obs->audit;
    os << ",\"audit\":{\"joined\":" << a.joined
       << ",\"unjoined\":" << a.unjoined
       << ",\"predictions\":" << a.predictions
       << ",\"thread_records\":" << a.threads.size()
       << ",\"epoch_records\":" << a.epochs.size()
       << ",\"migration_records\":" << a.migrations.size()
       << ",\"drift_events\":" << a.drift_events.size();
    // Retained-ledger residual summary, corrected vs raw: in an unadapted
    // run the two pairs coincide; under online adaptation their gap is the
    // bias/gain correction's contribution, visible without the CSV export.
    double g = 0, p = 0, rg = 0, rp = 0;
    for (const obs::ThreadAuditRecord& t : a.threads) {
      g += std::abs(t.gips_err);
      p += std::abs(t.power_err);
      rg += std::abs(t.raw_gips_err);
      rp += std::abs(t.raw_power_err);
    }
    const double n = a.threads.empty()
                         ? 1.0
                         : static_cast<double>(a.threads.size());
    os << ",\"mean_abs_gips_err\":";
    json_number(os, g / n);
    os << ",\"mean_abs_power_err\":";
    json_number(os, p / n);
    os << ",\"raw_mean_abs_gips_err\":";
    json_number(os, rg / n);
    os << ",\"raw_mean_abs_power_err\":";
    json_number(os, rp / n);
    if (r.adapt_joins || r.adapt_rls_updates || r.adapt_cov_resets) {
      os << ",\"adapt\":{\"joins\":" << r.adapt_joins
         << ",\"rls_updates\":" << r.adapt_rls_updates
         << ",\"cov_resets\":" << r.adapt_cov_resets << "}";
    }
    os << "}";
  }

  if (!r.final_temp_c.empty()) {
    os << ",\"thermal\":{\"max_temp_c\":";
    json_number(os, r.max_temp_c);
    os << ",\"final_temp_c\":[";
    for (std::size_t i = 0; i < r.final_temp_c.size(); ++i) {
      if (i) os << ',';
      json_number(os, r.final_temp_c[i]);
    }
    os << "]}";
  }

  os << ",\"cores\":[";
  for (std::size_t i = 0; i < r.cores.size(); ++i) {
    const auto& c = r.cores[i];
    if (i) os << ',';
    os << "{\"id\":" << c.id << ",\"type\":";
    json_string(os, c.type_name);
    os << ",\"instructions\":" << c.instructions << ",\"energy_j\":";
    json_number(os, c.energy_j);
    os << ",\"busy_ms\":";
    json_number(os, to_millis(c.busy_ns));
    os << ",\"sleep_ms\":";
    json_number(os, to_millis(c.sleep_ns));
    os << ",\"ips_per_watt\":";
    json_number(os, c.ips_per_watt);
    os << ",\"utilization\":";
    json_number(os, c.utilization);
    os << "}";
  }
  os << "]";

  os << ",\"threads\":[";
  for (std::size_t i = 0; i < r.threads.size(); ++i) {
    const auto& t = r.threads[i];
    if (i) os << ',';
    os << "{\"tid\":" << t.tid << ",\"name\":";
    json_string(os, t.name);
    os << ",\"instructions\":" << t.instructions << ",\"energy_j\":";
    json_number(os, t.energy_j);
    os << ",\"runtime_ms\":";
    json_number(os, to_millis(t.runtime));
    os << ",\"migrations\":" << t.migrations
       << ",\"completed\":" << (t.completed ? "true" : "false")
       << ",\"avg_wait_us\":";
    json_number(os, t.avg_wait_us);
    os << ",\"max_wait_us\":";
    json_number(os, t.max_wait_us);
    os << "}";
  }
  os << "]}";
}

std::string to_json(const SimulationResult& r) {
  std::ostringstream os;
  write_json(os, r);
  return os.str();
}

}  // namespace sb::sim
