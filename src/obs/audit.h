// Prediction-audit flight recorder: deterministic sim-time telemetry that
// closes the sense → predict → balance loop on *decision quality*.
//
// Every epoch the balancer commits two kinds of forecasts: per-thread
// predicted GIPS/watts on the core each thread will run on next (the S/P
// characterization columns), and a predicted objective gain ΔJ_E for the
// allocation it applies. One epoch later the sensing layer reports what
// actually happened. The recorder joins the two streams by thread id and
// produces three record ledgers:
//
//   thread     predicted vs observed GIPS / power for a thread whose next
//              epoch landed on the predicted core (signed relative residual)
//   epoch      SA trajectory summary + decision regret (predicted ΔJ vs the
//              realized ΔJ measured one epoch later) + health/degraded state
//   migration  per-migration attribution: predicted efficiency gain vs the
//              first warmed-up measurement on the destination core
//
// A per-(src,dst)-core-type ResidualTracker keeps EWMAs of the residuals
// and a drift detector (at the drift contract of obs/residual_tracker.h);
// a rising edge above the threshold yields a drift event the caller
// surfaces as a `predictor.drift` trace instant (and may escalate through
// the degraded-mode machinery).
//
// Everything here is sim-time only — epochs, tids, cores, objective values.
// No host clocks, no RNG, no feedback into the simulation: like the rest of
// the obs layer the recorder is strictly read-only, and its export is a
// deterministic function of the simulated run (bit-identical across --jobs).
#pragma once

#include <cstdint>
#include <vector>

#include "obs/residual_tracker.h"
#include "obs/store.h"

namespace sb::obs {

/// Per-ledger ring capacity (records); oldest records drop on overflow.
inline constexpr std::size_t kAuditCapacity = 4096;
/// Epochs a pending migration waits for a warmed-up measurement on its
/// destination core before being closed out unvalidated (must exceed the
/// balancer's migration cooldown, during which sensing serves the cached
/// pre-migration characterization).
inline constexpr std::uint64_t kMigrationJoinMaxAge = 6;

/// One joined thread prediction: forecast at `epoch - 1`, validated against
/// the observation sensed at `epoch`. Residuals are signed and relative to
/// the observed value: err = (obs - pred) / obs.
struct ThreadAuditRecord {
  std::uint64_t epoch = 0;
  std::int64_t tid = 0;
  std::int32_t core = -1;      // core the thread was observed on (== predicted)
  std::int32_t src_type = -1;  // core type the forecast extrapolated from
  std::int32_t dst_type = -1;  // core type forecast / observed on
  double pred_gips = 0;
  double obs_gips = 0;
  double pred_w = 0;
  double obs_w = 0;
  double gips_err = 0;
  double power_err = 0;
  /// Residuals of the *raw* (pre-adaptation) Eq. 8 forecast, so a single
  /// export scores the online bias/gain correction as a first-class column
  /// (raw == corrected, and these equal gips_err/power_err, when the
  /// balancer runs unadapted).
  double raw_gips_err = 0;
  double raw_power_err = 0;
};

/// One balance pass: SA trajectory, applied decision, and — filled in one
/// epoch later — the realized objective delta and regret.
struct EpochAuditRecord {
  std::uint64_t epoch = 0;
  double initial_j = 0;  // objective of the incumbent allocation (predicted)
  double final_j = 0;    // objective of the SA result (predicted)
  std::int32_t applied = 0;  // 1 when the allocation was actually applied
  double pred_dj = 0;        // predicted ΔJ of the applied allocation (0 if not)
  double realized_j = 0;     // observed objective when this pass sensed
  double realized_dj = 0;    // realized_j(epoch+1) - realized_j(epoch)
  std::int32_t realized_valid = 0;
  double regret = 0;  // pred_dj - realized_dj (valid iff realized_valid)
  std::int32_t migrations = 0;
  std::int32_t joined = 0;    // thread predictions from this pass that joined
  std::int32_t unjoined = 0;  // …and that could not be validated
  double healthy_fraction = 1.0;
  std::int32_t degraded = 0;
  std::int32_t sa_iterations = 0;
  std::int32_t sa_accepted_worse = 0;
  std::int32_t sa_improved = 0;
  std::int64_t faults_injected = 0;  // injector deltas attributed to this pass
};

/// One migration: predicted efficiency gain at decision time vs the first
/// warmed-up measurement on the destination core (within the join window).
struct MigrationAuditRecord {
  std::uint64_t epoch = 0;  // pass that performed the migration
  std::int64_t tid = 0;
  std::int32_t src = -1;
  std::int32_t dst = -1;
  std::int32_t src_type = -1;
  std::int32_t dst_type = -1;
  double pred_gain = 0;  // predicted GIPS/W on dst minus measured on src
  double realized_gain = 0;
  std::int32_t realized_valid = 0;
};

/// Drift-detector rising edge for one (src,dst) core-type pair.
struct DriftEvent {
  std::uint64_t epoch = 0;
  std::int32_t src_type = -1;
  std::int32_t dst_type = -1;
  std::int32_t metric = 0;  // 0 = throughput residual, 1 = power residual
  double ewma = 0;
  std::uint64_t joins = 0;
};

/// Final state of one (src,dst) residual tracker.
struct DriftState {
  std::int32_t src_type = -1;
  std::int32_t dst_type = -1;
  std::uint64_t joins = 0;
  double ewma_gips = 0;
  double ewma_power = 0;
  std::int32_t active = 0;
  /// Signed residual EWMAs (the drift EWMAs above track |residual|): their
  /// sign says which way the predictor leans, which is exactly what the
  /// online bias/gain corrector consumes.
  double ewma_gips_signed = 0;
  double ewma_power_signed = 0;
};

/// The observation subset the recorder joins against — mirrors the fields
/// of core::ThreadObservation the audit needs, without depending on core/.
struct AuditObservation {
  std::int64_t tid = 0;
  std::int32_t core = -1;
  std::int32_t core_type = -1;
  double gips = 0;
  double watts = 0;
  bool measured = false;
};

/// Per-thread forecast registered after a balance pass: where the thread
/// will run next epoch and what S/P predict for it there.
struct ThreadPrediction {
  std::int64_t tid = 0;
  std::int32_t core = -1;
  std::int32_t src_type = -1;
  std::int32_t dst_type = -1;
  double pred_gips = 0;
  double pred_w = 0;
  /// Pre-adaptation forecast for the same cell. Callers that don't adapt
  /// may leave these 0: record_prediction backfills them from
  /// pred_gips/pred_w so raw == corrected in unadapted exports.
  double raw_pred_gips = 0;
  double raw_pred_w = 0;
};

/// Everything the recorder produced for one run, detached and mergeable —
/// carried alongside the metrics registry and trace snapshot in RunObs.
struct AuditSnapshot {
  std::vector<ThreadAuditRecord> threads;
  std::vector<EpochAuditRecord> epochs;
  std::vector<MigrationAuditRecord> migrations;
  std::vector<DriftEvent> drift_events;
  std::vector<DriftState> drift_states;  // keyed (src,dst), map order
  std::uint64_t joined = 0;
  std::uint64_t unjoined = 0;
  std::uint64_t predictions = 0;
  std::uint64_t dropped_threads = 0;
  std::uint64_t dropped_epochs = 0;
  std::uint64_t dropped_migrations = 0;
};

class AuditRecorder {
 public:
  /// Phase A of every pass, right after sensing: joins the predictions
  /// registered last pass against this pass's observations, finalizes the
  /// previous epoch record (realized ΔJ / regret), closes out matured
  /// migrations and advances the drift EWMAs. `realized_j` is the observed
  /// objective computed from the same observations. Returns the drift
  /// rising edges this join produced (usually empty).
  std::vector<DriftEvent> join(std::uint64_t epoch,
                               const std::vector<AuditObservation>& obs,
                               double realized_j);

  /// Phase B: opens the pass's epoch ledger entry. The recorder sets only
  /// `realized_j`, the objective this pass sensed; join() fills in the
  /// realized ΔJ, regret and join counts one epoch later.
  void record_decision(EpochAuditRecord rec);
  /// Phase B: one forecast per balanced thread.
  void record_prediction(const ThreadPrediction& p);
  /// Phase B: one entry per applied migration, stamped with the open
  /// decision's epoch. `src_eff` is the thread's measured GIPS/W on the
  /// source core, the baseline the realized gain is scored against.
  void record_migration(MigrationAuditRecord rec, double src_eff);

  /// True while any (src,dst) residual EWMA sits above the threshold.
  bool drift_active() const { return residuals_.any_active(); }

  std::uint64_t joined() const { return joined_; }
  std::uint64_t unjoined() const { return unjoined_; }
  std::uint64_t predictions() const { return predictions_; }

  AuditSnapshot snapshot() const;

 private:
  struct PendingMigration {
    MigrationAuditRecord rec;  // as registered; epoch = pass that migrated
    double src_eff = 0;
    std::uint64_t seq = 0;  // ring slot of its (open) ledger record
  };

  Ring<ThreadAuditRecord> threads_{kAuditCapacity};
  Ring<EpochAuditRecord> epochs_{kAuditCapacity};
  Ring<MigrationAuditRecord> migrations_{kAuditCapacity};
  std::vector<DriftEvent> drift_events_;

  /// Forecasts awaiting next epoch's observations.
  std::vector<ThreadPrediction> pending_preds_;
  std::uint64_t pending_epoch_ = 0;  // pass the forecasts were made at
  bool pending_valid_ = false;
  /// The previous pass's (still open) epoch ledger entry.
  std::uint64_t open_epoch_seq_ = 0;
  bool open_epoch_valid_ = false;
  double open_epoch_realized_j_ = 0;
  /// Migrations awaiting a warmed-up destination measurement.
  std::vector<PendingMigration> pending_migrations_;

  ResidualTracker residuals_;  // on the corrected forecasts' residuals

  std::uint64_t joined_ = 0;
  std::uint64_t unjoined_ = 0;
  std::uint64_t predictions_ = 0;
};

}  // namespace sb::obs
