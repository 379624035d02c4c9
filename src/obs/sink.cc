#include "obs/sink.h"

#include <utility>

namespace sb::obs {

Sink::Sink(ObsConfig cfg) : cfg_(cfg) {
  if (cfg_.trace) tracer_ = std::make_unique<EpochTracer>(std::size_t{1} << 16);
  if (cfg_.audit) audit_ = std::make_unique<AuditRecorder>();
  // SLO objectives need frames to score, so they imply the sampler.
  if (!cfg_.slo.empty()) cfg_.timeseries.enabled = true;
  if (cfg_.timeseries.enabled) {
    timeseries_ = std::make_unique<TimeseriesRecorder>(cfg_.timeseries);
    if (!cfg_.slo.empty()) {
      slo_ = std::make_unique<SloEngine>(cfg_.slo, cfg_.timeseries.window);
    }
  }
}

void Sink::complete_frame() {
  if (timeseries_ == nullptr) return;
  if (slo_ != nullptr) {
    slo_->on_frame(*timeseries_, metrics_, tracer_.get(), epoch_);
  }
  metrics_.counter("tsdb.frames").add();
  metrics_.counter("tsdb.samples").add(timeseries_->frame().size());
  metrics_.gauge("tsdb.dropped").set(
      static_cast<double>(timeseries_->dropped()));
}

RunObs Sink::snapshot(std::string label) const {
  RunObs out;
  out.label = std::move(label);
  out.metrics_enabled = cfg_.metrics;
  out.trace_enabled = cfg_.trace;
  out.audit_enabled = cfg_.audit;
  out.timeseries_enabled = cfg_.timeseries.enabled;
  out.metrics = metrics_;
  if (tracer_ != nullptr) out.trace = tracer_->snapshot();
  if (audit_ != nullptr) out.audit = audit_->snapshot();
  if (timeseries_ != nullptr) out.timeseries = timeseries_->snapshot();
  return out;
}

}  // namespace sb::obs
