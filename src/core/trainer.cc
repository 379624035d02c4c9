#include "core/trainer.h"

#include <array>
#include <cmath>
#include <stdexcept>

#include "common/matrix.h"
#include "workload/benchmarks.h"

namespace sb::core {
namespace {

/// Relative σ of the jittered profile replicas (regression diversity).
constexpr double kJitterSigma = 0.06;
/// Ridge regularization of the least-squares fits (degenerate columns).
constexpr double kRidge = 1e-6;
/// Instructions per synthesized profiling run.
constexpr std::uint64_t kProfilingInsts = 20'000'000;
/// Memory-latency operating points sampled during training and evaluation,
/// so the regression stays calibrated under shared-bus contention (the
/// runtime system sees inflated latencies when many cores miss at once).
constexpr std::array<double, 3> kTrainingLatenciesNs = {
    PredictorTrainer::kNominalMemLatencyNs, 140.0, 220.0};

}  // namespace

PredictorTrainer::PredictorTrainer(const perf::PerfModel& perf,
                                   const power::PowerModel& power, Config cfg)
    : perf_(perf), power_(power), cfg_(cfg) {
  if (cfg_.replicas <= 0) throw std::invalid_argument("trainer: replicas");
}

ThreadObservation PredictorTrainer::synthesize_observation(
    const workload::WorkloadProfile& profile, CoreTypeId src, Rng& rng,
    double mem_latency_ns, double freq_mhz) const {
  const auto& params = perf_.platform().params_of_type(src);
  const double freq = freq_mhz > 0 ? freq_mhz : params.freq_mhz;
  const auto bd =
      perf_.evaluate_on_type(profile, src, mem_latency_ns, 1.0, freq);

  // Build ground-truth counters for a profiling run of N instructions.
  const auto insts = static_cast<double>(kProfilingInsts);
  const double cycles = insts * bd.total_cpi();
  perf::HpcCounters counters;
  perf::PerfModel::accumulate_counters(counters, bd, profile, insts, cycles);

  // Observe with the same counter-noise path the runtime sensing uses.
  auto noisy = [&](double v) {
    return std::max(0.0, v * (1.0 + cfg_.counter_noise * rng.gaussian()));
  };
  ThreadObservation o;
  o.core_type = src;
  const double inst_total = noisy(static_cast<double>(counters.inst_total));
  const double active = noisy(static_cast<double>(counters.active_cycles()));
  o.instructions = counters.inst_total;
  o.ipc = active > 0 ? inst_total / active : 0.0;
  o.imsh = inst_total > 0
               ? noisy(static_cast<double>(counters.inst_mem)) / inst_total
               : 0.0;
  o.ibsh = inst_total > 0
               ? noisy(static_cast<double>(counters.inst_branch)) / inst_total
               : 0.0;
  auto rate = [&](std::uint64_t num, std::uint64_t den) {
    const double d = noisy(static_cast<double>(den));
    return d > 0 ? noisy(static_cast<double>(num)) / d : 0.0;
  };
  o.mr_branch = rate(counters.branch_mispred, counters.inst_branch);
  o.mr_l1i = rate(counters.l1i_miss, counters.l1i_access);
  o.mr_l1d = rate(counters.l1d_miss, counters.l1d_access);
  o.mr_itlb = rate(counters.itlb_miss, counters.itlb_access);
  o.mr_dtlb = rate(counters.dtlb_miss, counters.dtlb_access);
  o.freq_mhz = freq;
  o.ips = o.ipc * freq * 1e6;
  o.power_w = power_.busy_power_w(src, bd.ipc, profile.activity);
  o.measured = true;
  return o;
}

PredictorModel PredictorTrainer::train(
    const std::vector<workload::WorkloadProfile>& profiles) const {
  if (profiles.empty()) throw std::invalid_argument("train: no profiles");
  const auto& platform = perf_.platform();
  const int q = platform.num_types();
  PredictorModel model(q);

  Rng rng(cfg_.seed);
  workload::RngJitter jitter(rng);

  // Expand the training set with jittered replicas so the regression sees
  // the neighbourhood of each benchmark, not just its exact point.
  std::vector<workload::WorkloadProfile> expanded;
  expanded.reserve(profiles.size() * static_cast<std::size_t>(cfg_.replicas));
  for (const auto& p : profiles) {
    expanded.push_back(p);
    for (int r = 1; r < cfg_.replicas; ++r) {
      expanded.push_back(p.jittered(kJitterSigma, jitter));
    }
  }

  // Per-sample observations on each source type and ground truth on each
  // destination type, sampled at every training memory-latency point so
  // the regression remains calibrated under bus contention. Observation
  // and truth for a sample share the latency point (the whole chip sees
  // the same bus). With DVFS training enabled, each (sample, latency) is
  // additionally profiled at every source/destination frequency-ratio pair
  // so the FR feature carries real signal.
  const auto& lats = kTrainingLatenciesNs;
  const std::vector<double> ratios = cfg_.training_freq_ratios.empty()
                                         ? std::vector<double>{1.0}
                                         : cfg_.training_freq_ratios;
  const std::size_t npoints = expanded.size() * lats.size() * ratios.size();
  // obs[type][point], truth[type][point]; point index iterates profiles ×
  // latencies × ratios in a fixed order shared by all types.
  std::vector<std::vector<ThreadObservation>> obs(static_cast<std::size_t>(q));
  std::vector<std::vector<double>> true_ipc(static_cast<std::size_t>(q));
  std::vector<std::vector<double>> true_power(static_cast<std::size_t>(q));
  for (CoreTypeId t = 0; t < q; ++t) {
    const double nominal = platform.params_of_type(t).freq_mhz;
    obs[static_cast<std::size_t>(t)].reserve(npoints);
    for (const auto& p : expanded) {
      for (double lat : lats) {
        for (double ratio : ratios) {
          obs[static_cast<std::size_t>(t)].push_back(
              synthesize_observation(p, t, rng, lat, nominal * ratio));
          const auto bd =
              perf_.evaluate_on_type(p, t, lat, 1.0, nominal * ratio);
          true_ipc[static_cast<std::size_t>(t)].push_back(bd.ipc);
          true_power[static_cast<std::size_t>(t)].push_back(
              power_.busy_power_w(t, bd.ipc, p.activity));
        }
      }
    }
  }

  // Θ regression per ordered (src, dst) pair — Eq. 8 / Table 4. Source and
  // destination frequency ratios are *crossed* (a measurement at one OPP
  // must predict a target at any OPP), so the FR feature carries real
  // variation whenever more than one ratio is configured.
  const std::size_t nratio = ratios.size();
  const std::size_t base_points = npoints / nratio;  // (profile, lat) pairs
  for (CoreTypeId s = 0; s < q; ++s) {
    for (CoreTypeId d = 0; d < q; ++d) {
      if (s == d) continue;
      const std::size_t rows = base_points * nratio * nratio;
      Matrix a(rows, kNumFeatures);
      std::vector<double> b(rows);
      std::size_t row = 0;
      for (std::size_t bp = 0; bp < base_points; ++bp) {
        for (std::size_t rs = 0; rs < nratio; ++rs) {
          const auto& src_obs =
              obs[static_cast<std::size_t>(s)][bp * nratio + rs];
          for (std::size_t rd = 0; rd < nratio; ++rd) {
            const std::size_t dst_idx = bp * nratio + rd;
            const auto& dst_obs = obs[static_cast<std::size_t>(d)][dst_idx];
            const auto x = make_features(
                src_obs, src_obs.freq_mhz / dst_obs.freq_mhz);
            // Weight by 1/truth: the reported quantity (Fig. 6) is
            // *relative* IPC error, so minimize relative residuals.
            // Non-finite rows (a poisoned observation would propagate NaN
            // through the normal equations and corrupt every coefficient)
            // are zero-weighted out of the regression.
            double truth = true_ipc[static_cast<std::size_t>(d)][dst_idx];
            bool finite = std::isfinite(truth);
            for (std::size_t k = 0; finite && k < kNumFeatures; ++k) {
              finite = std::isfinite(x[k]);
            }
            if (!finite) truth = 0.0;
            const double w = finite ? 1.0 / std::max(truth, 1e-3) : 0.0;
            for (std::size_t k = 0; k < kNumFeatures; ++k) {
              a.at(row, k) = w * x[k];
            }
            b[row] = w * truth;
            ++row;
          }
        }
      }
      const auto coeffs = least_squares(a, b, kRidge);
      std::array<double, kNumFeatures> th{};
      for (std::size_t k = 0; k < kNumFeatures; ++k) th[k] = coeffs[k];
      model.set_theta(s, d, th);
    }
  }

  // Power interpolation per destination type — Eq. 9 (relative residuals,
  // as above). Trained at the nominal point; the runtime scales by the
  // DVFS laws when a core runs elsewhere.
  const std::size_t ns = npoints;
  for (CoreTypeId d = 0; d < q; ++d) {
    Matrix a(ns, 2);
    std::vector<double> b(ns);
    for (std::size_t i = 0; i < ns; ++i) {
      double truth = true_power[static_cast<std::size_t>(d)][i];
      const double ipc = true_ipc[static_cast<std::size_t>(d)][i];
      const bool finite = std::isfinite(truth) && std::isfinite(ipc);
      if (!finite) truth = 0.0;
      const double w = finite ? 1.0 / std::max(truth, 1e-6) : 0.0;
      a.at(i, 0) = w * (finite ? ipc : 0.0);
      a.at(i, 1) = w;
      b[i] = w * truth;
    }
    const auto c = least_squares(a, b, kRidge);
    model.set_power_coeffs(d, c[0], c[1]);
  }

  // IPC bounds: nothing can exceed the widest machine.
  double max_width = 1.0;
  for (CoreTypeId t = 0; t < q; ++t) {
    max_width = std::max(
        max_width, static_cast<double>(platform.params_of_type(t).issue_width));
  }
  model.set_ipc_bounds(0.02, max_width);
  return model;
}

PredictorTrainer::ErrorReport PredictorTrainer::evaluate(
    const PredictorModel& model,
    const std::vector<workload::WorkloadProfile>& profiles) const {
  const auto& platform = perf_.platform();
  const int q = platform.num_types();
  Rng rng(cfg_.seed ^ 0xe7a1ULL);

  // Evaluate at every operating point the runtime system encounters (the
  // shared bus inflates memory latency under load), matching deployment.
  const auto& lats = kTrainingLatenciesNs;
  ErrorReport report;
  double perf_sum = 0, power_sum = 0;
  for (const auto& p : profiles) {
    double perf_err = 0, power_err = 0;
    int pairs = 0;
    for (double lat : lats) {
      for (CoreTypeId s = 0; s < q; ++s) {
        const auto o = synthesize_observation(p, s, rng, lat);
        const double fs = platform.params_of_type(s).freq_mhz;
        for (CoreTypeId d = 0; d < q; ++d) {
          if (s == d) continue;
          const double fd = platform.params_of_type(d).freq_mhz;
          const auto bd = perf_.evaluate_on_type(p, d, lat);
          const double truth_ipc = bd.ipc;
          const double truth_p = power_.busy_power_w(d, bd.ipc, p.activity);
          const double pred_ipc = model.predict_ipc(o, d, fs, fd);
          const double pred_p = model.predict_power(d, pred_ipc);
          perf_err += std::abs(pred_ipc - truth_ipc) / truth_ipc;
          power_err += std::abs(pred_p - truth_p) / truth_p;
          ++pairs;
        }
      }
    }
    ProfileError pe;
    pe.name = p.name;
    pe.perf_err_pct = 100.0 * perf_err / pairs;
    pe.power_err_pct = 100.0 * power_err / pairs;
    perf_sum += pe.perf_err_pct;
    power_sum += pe.power_err_pct;
    report.per_profile.push_back(pe);
  }
  if (!report.per_profile.empty()) {
    report.avg_perf_err_pct =
        perf_sum / static_cast<double>(report.per_profile.size());
    report.avg_power_err_pct =
        power_sum / static_cast<double>(report.per_profile.size());
  }
  return report;
}

PredictorTrainer::ErrorReport PredictorTrainer::leave_one_out(
    const std::vector<
        std::pair<std::string, std::vector<workload::WorkloadProfile>>>&
        by_benchmark) const {
  ErrorReport report;
  double perf_sum = 0, power_sum = 0;
  for (std::size_t held = 0; held < by_benchmark.size(); ++held) {
    std::vector<workload::WorkloadProfile> training;
    for (std::size_t i = 0; i < by_benchmark.size(); ++i) {
      if (i == held) continue;
      training.insert(training.end(), by_benchmark[i].second.begin(),
                      by_benchmark[i].second.end());
    }
    const PredictorModel model = train(training);
    const ErrorReport r = evaluate(model, by_benchmark[held].second);
    ProfileError pe;
    pe.name = by_benchmark[held].first;
    pe.perf_err_pct = r.avg_perf_err_pct;
    pe.power_err_pct = r.avg_power_err_pct;
    perf_sum += pe.perf_err_pct;
    power_sum += pe.power_err_pct;
    report.per_profile.push_back(pe);
  }
  if (!report.per_profile.empty()) {
    report.avg_perf_err_pct =
        perf_sum / static_cast<double>(report.per_profile.size());
    report.avg_power_err_pct =
        power_sum / static_cast<double>(report.per_profile.size());
  }
  return report;
}

std::vector<workload::WorkloadProfile>
PredictorTrainer::default_training_profiles() {
  std::vector<workload::WorkloadProfile> out;
  for (const auto& [name, phases] : profiles_by_benchmark()) {
    out.insert(out.end(), phases.begin(), phases.end());
  }
  return out;
}

std::vector<std::pair<std::string, std::vector<workload::WorkloadProfile>>>
PredictorTrainer::profiles_by_benchmark() {
  std::vector<std::pair<std::string, std::vector<workload::WorkloadProfile>>>
      out;
  auto add = [&out](const std::string& name) {
    const auto b = workload::BenchmarkLibrary::get(name);
    std::vector<workload::WorkloadProfile> phases;
    for (const auto& ph : b.phases) phases.push_back(ph.profile);
    out.emplace_back(name, std::move(phases));
  };
  for (const auto& n : workload::BenchmarkLibrary::parsec_names()) add(n);
  for (const auto& n : workload::BenchmarkLibrary::x264_names()) add(n);
  for (const auto& n : workload::BenchmarkLibrary::imb_names()) add(n);
  return out;
}

}  // namespace sb::core
