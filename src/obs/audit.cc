#include "obs/audit.h"

#include <algorithm>

namespace sb::obs {

std::vector<DriftEvent> AuditRecorder::join(std::uint64_t epoch,
                                            const ForecastLog& log,
                                            double realized_j) {
  std::vector<DriftEvent> edges;
  for (const JoinedForecast& j : log.joined()) {
    const Forecast& f = *j.forecast;
    const Observation& o = *j.observed;
    ThreadAuditRecord rec;
    rec.epoch = epoch;
    rec.tid = f.tid;
    rec.core = f.core;
    rec.src_type = f.src_type;
    rec.dst_type = f.dst_type;
    rec.pred_gips = f.gips;
    rec.obs_gips = o.gips;
    rec.pred_w = f.watts;
    rec.obs_w = o.watts;
    rec.gips_err = relative_residual(o.gips, f.gips);
    rec.power_err = relative_residual(o.watts, f.watts);
    rec.raw_gips_err = relative_residual(o.gips, f.raw_gips);
    rec.raw_power_err = relative_residual(o.watts, f.raw_watts);
    threads_.push(rec);

    if (residuals_.update(f.src_type, f.dst_type, rec.gips_err,
                          rec.power_err)) {
      const ResidualTracker::Pair& t = *residuals_.find(f.src_type, f.dst_type);
      DriftEvent ev;
      ev.epoch = epoch;
      ev.src_type = f.src_type;
      ev.dst_type = f.dst_type;
      ev.metric = t.ewma_gips > kDriftThreshold ? 0 : 1;
      ev.ewma = std::max(t.ewma_gips, t.ewma_power);
      ev.joins = t.joins;
      drift_events_.push_back(ev);
      edges.push_back(ev);
    }
  }
  const auto joined_now = static_cast<std::int32_t>(log.joined().size());
  const auto unjoined_now =
      static_cast<std::int32_t>(log.consumed()) - joined_now;
  joined_ += static_cast<std::uint64_t>(joined_now);
  unjoined_ += static_cast<std::uint64_t>(unjoined_now);

  // Finalize the forecasting pass's epoch ledger entry: realized ΔJ and
  // regret (only one pass later) plus the join outcome of its forecasts.
  if (open_epoch_valid_) {
    if (EpochAuditRecord* rec = epochs_.find(open_epoch_seq_)) {
      rec->joined = joined_now;
      rec->unjoined = unjoined_now;
      if (log.contiguous()) {
        rec->realized_dj = realized_j - open_epoch_realized_j_;
        rec->realized_valid = 1;
        rec->regret = rec->pred_dj - rec->realized_dj;
      }
    }
  }
  open_epoch_valid_ = false;

  // Close out matured migrations: the first warmed-up measurement on the
  // destination core validates the predicted gain; entries that outlive the
  // join window stay realized_valid = 0 in the ledger.
  for (auto it = pending_migrations_.begin();
       it != pending_migrations_.end();) {
    const PendingMigration& pm = *it;
    const Observation* match = find_thread(log.observations(), pm.rec.tid);
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

void AuditRecorder::record_decision(EpochAuditRecord rec,
                                    std::size_t forecasts) {
  rec.realized_j = open_epoch_realized_j_;
  open_epoch_ = rec.epoch;
  open_epoch_seq_ = epochs_.push(rec);
  open_epoch_valid_ = true;
  predictions_ += forecasts;
}

void AuditRecorder::record_migration(MigrationAuditRecord rec,
                                     double src_eff) {
  if (!open_epoch_valid_) return;
  rec.epoch = open_epoch_;
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
