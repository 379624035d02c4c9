#include "obs/audit.h"

#include <algorithm>

namespace sb::obs {

std::vector<DriftEvent> AuditRecorder::join(
    std::uint64_t epoch, const std::vector<AuditObservation>& obs,
    double realized_j) {
  std::vector<DriftEvent> edges;

  // A gap in the pass sequence (e.g. an epoch that sensed nothing) breaks
  // the one-epoch-later contract: the previous entry stays unvalidated and
  // its forecasts are written off as unjoined.
  const bool contiguous = pending_valid_ && epoch == pending_epoch_ + 1;

  // Join last pass's per-thread forecasts against this pass's observations.
  int joined_now = 0;
  int unjoined_now = 0;
  if (pending_valid_) {
    if (contiguous) {
      for (const ThreadPrediction& p : pending_preds_) {
        const AuditObservation* match = find_thread(obs, p.tid);
        // Validate only when the thread really ran (and was measured) on
        // the predicted core: sensing serves cached pre-migration rows
        // while caches warm, and those would score the wrong core type.
        if (match == nullptr || !match->measured || match->core != p.core ||
            match->core_type != p.dst_type) {
          ++unjoined_now;
          continue;
        }
        ThreadAuditRecord rec;
        rec.epoch = epoch;
        rec.tid = p.tid;
        rec.core = p.core;
        rec.src_type = p.src_type;
        rec.dst_type = p.dst_type;
        rec.pred_gips = p.pred_gips;
        rec.obs_gips = match->gips;
        rec.pred_w = p.pred_w;
        rec.obs_w = match->watts;
        rec.gips_err = relative_residual(match->gips, p.pred_gips);
        rec.power_err = relative_residual(match->watts, p.pred_w);
        rec.raw_gips_err = relative_residual(match->gips, p.raw_pred_gips);
        rec.raw_power_err = relative_residual(match->watts, p.raw_pred_w);
        threads_.push(rec);
        ++joined_now;

        if (residuals_.update(p.src_type, p.dst_type, rec.gips_err,
                              rec.power_err)) {
          const ResidualTracker::Pair& t =
              *residuals_.find(p.src_type, p.dst_type);
          DriftEvent ev;
          ev.epoch = epoch;
          ev.src_type = p.src_type;
          ev.dst_type = p.dst_type;
          ev.metric = t.ewma_gips > kDriftThreshold ? 0 : 1;
          ev.ewma = std::max(t.ewma_gips, t.ewma_power);
          ev.joins = t.joins;
          drift_events_.push_back(ev);
          edges.push_back(ev);
        }
      }
    } else {
      unjoined_now += static_cast<int>(pending_preds_.size());
    }
  }
  joined_ += static_cast<std::uint64_t>(joined_now);
  unjoined_ += static_cast<std::uint64_t>(unjoined_now);

  // Finalize the forecasting pass's epoch ledger entry: realized ΔJ and
  // regret (only when contiguous) plus the join outcome of its forecasts.
  if (open_epoch_valid_) {
    if (EpochAuditRecord* rec = epochs_.find(open_epoch_seq_)) {
      rec->joined = joined_now;
      rec->unjoined = unjoined_now;
      if (contiguous) {
        rec->realized_dj = realized_j - open_epoch_realized_j_;
        rec->realized_valid = 1;
        rec->regret = rec->pred_dj - rec->realized_dj;
      }
    }
  }
  open_epoch_valid_ = false;
  pending_preds_.clear();
  pending_valid_ = false;

  // Close out matured migrations: the first warmed-up measurement on the
  // destination core validates the predicted gain; entries that outlive the
  // join window stay realized_valid = 0 in the ledger.
  for (auto it = pending_migrations_.begin();
       it != pending_migrations_.end();) {
    const PendingMigration& pm = *it;
    const AuditObservation* match = find_thread(obs, pm.rec.tid);
    bool done = false;
    if (match != nullptr && match->measured && match->core == pm.rec.dst &&
        match->core_type == pm.rec.dst_type) {
      if (MigrationAuditRecord* rec = migrations_.find(pm.seq)) {
        const double obs_eff =
            match->watts > 0 ? match->gips / match->watts : 0.0;
        rec->realized_gain = obs_eff - pm.src_eff;
        rec->realized_valid = 1;
      }
      done = true;
    } else if (match == nullptr ||
               epoch - pm.rec.epoch >= kMigrationJoinMaxAge) {
      // Thread exited or the window expired (sensing keeps serving the
      // cached pre-migration row while caches warm, so an observation on
      // the source core does NOT mean the thread moved back).
      done = true;
    }
    it = done ? pending_migrations_.erase(it) : it + 1;
  }

  open_epoch_realized_j_ = realized_j;
  return edges;
}

void AuditRecorder::record_decision(EpochAuditRecord rec) {
  rec.realized_j = open_epoch_realized_j_;
  open_epoch_seq_ = epochs_.push(rec);
  open_epoch_valid_ = true;
  pending_epoch_ = rec.epoch;
  pending_valid_ = true;
  pending_preds_.clear();
}

void AuditRecorder::record_prediction(const ThreadPrediction& p) {
  if (!pending_valid_) return;  // forecasts only make sense under a decision
  pending_preds_.push_back(p);
  // Unadapted callers leave the raw fields at 0: raw == corrected then, so
  // backfill per field (a genuine raw forecast of exactly 0.0 cannot occur —
  // predictions are clamped strictly positive).
  ThreadPrediction& stored = pending_preds_.back();
  if (stored.raw_pred_gips == 0.0) stored.raw_pred_gips = stored.pred_gips;
  if (stored.raw_pred_w == 0.0) stored.raw_pred_w = stored.pred_w;
  ++predictions_;
}

void AuditRecorder::record_migration(MigrationAuditRecord rec,
                                     double src_eff) {
  if (!pending_valid_) return;
  rec.epoch = pending_epoch_;
  pending_migrations_.push_back({rec, src_eff, migrations_.push(rec)});
}

AuditSnapshot AuditRecorder::snapshot() const {
  AuditSnapshot snap;
  snap.threads = threads_.snapshot();
  snap.epochs = epochs_.snapshot();
  snap.migrations = migrations_.snapshot();
  snap.drift_events = drift_events_;
  for (const auto& [key, t] : residuals_.pairs()) {
    DriftState st;
    st.src_type = key.first;
    st.dst_type = key.second;
    st.joins = t.joins;
    st.ewma_gips = t.ewma_gips;
    st.ewma_power = t.ewma_power;
    st.active = t.active ? 1 : 0;
    st.ewma_gips_signed = t.sewma_gips;
    st.ewma_power_signed = t.sewma_power;
    snap.drift_states.push_back(st);
  }
  snap.joined = joined_;
  snap.unjoined = unjoined_;
  snap.predictions = predictions_;
  snap.dropped_threads = threads_.dropped();
  snap.dropped_epochs = epochs_.dropped();
  snap.dropped_migrations = migrations_.dropped();
  return snap;
}

}  // namespace sb::obs
