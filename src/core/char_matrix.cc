#include "core/char_matrix.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

namespace sb::core {

CharacterizationMatrices build_characterization(
    const std::vector<ThreadObservation>& observations,
    const PredictorModel& predictor, const arch::Platform& platform,
    const std::vector<arch::OperatingPoint>* core_opps) {
  const std::size_t m = observations.size();
  const auto n = static_cast<std::size_t>(platform.num_cores());
  if (core_opps && core_opps->size() != n) {
    throw std::invalid_argument("build_characterization: opp vector size");
  }
  CharacterizationMatrices out;
  out.tids.reserve(m);
  out.current.reserve(m);

  const auto freq_of = [&](CoreId c) {
    return core_opps ? (*core_opps)[static_cast<std::size_t>(c)].freq_mhz
                     : platform.params_of(c).freq_mhz;
  };
  const auto power_scale_of = [&](CoreId c) {
    if (!core_opps) return 1.0;
    // Dynamic-power V²f scaling relative to the nominal point. The leakage
    // share scales with V³ instead; using the dynamic law for the total is
    // a small, conservative approximation (see header).
    return arch::dynamic_scale((*core_opps)[static_cast<std::size_t>(c)],
                               platform.params_of(c));
  };

  // A row's cell depends on the core only through (core type, effective
  // frequency, power scale), so the cores sharing that triple form one
  // class and share one (gips, watts) value. Group them once per call, run
  // the Θ fan-out once per class per thread and store one column per
  // class: on a 1024-core big.LITTLE with DVFS off that is 2 predictor
  // evaluations and 2 stored cells per thread instead of 1024 (the per-cell
  // arithmetic is a pure function of the grouped inputs, compared by bit
  // pattern, so every core's value is the one a per-core fill would give).
  struct CoreClass {
    CoreTypeId type;
    double dst_freq;
    double power_scale;
    std::uint64_t freq_bits;
    std::uint64_t scale_bits;
  };
  std::vector<CoreClass> classes;
  out.column_of.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const auto c = static_cast<CoreId>(j);
    CoreClass g;
    g.type = platform.type_of(c);
    g.dst_freq = freq_of(c);
    g.power_scale = power_scale_of(c);
    std::memcpy(&g.freq_bits, &g.dst_freq, sizeof(g.freq_bits));
    std::memcpy(&g.scale_bits, &g.power_scale, sizeof(g.scale_bits));
    std::size_t k = 0;
    while (k < classes.size() &&
           !(classes[k].type == g.type &&
             classes[k].freq_bits == g.freq_bits &&
             classes[k].scale_bits == g.scale_bits)) {
      ++k;
    }
    if (k == classes.size()) classes.push_back(g);
    out.column_of[j] = k;
  }
  out.s = Matrix(m, classes.size());
  out.p = Matrix(m, classes.size());

  for (std::size_t i = 0; i < m; ++i) {
    const ThreadObservation& o = observations[i];
    out.tids.push_back(o.tid);
    out.current.push_back(o.core);

    // Unmeasured threads (never ran long enough): neutral prior — assume a
    // modest IPC everywhere so the optimizer parks them on efficient cores
    // until real measurements arrive.
    if (!o.measured && o.instructions == 0) {
      for (std::size_t k = 0; k < classes.size(); ++k) {
        const CoreClass& cg = classes[k];
        const double ipc = 0.5;
        out.s.at(i, k) = ipc * cg.dst_freq / 1000.0;  // GIPS
        out.p.at(i, k) = predictor.predict_power(cg.type, ipc) * cg.power_scale;
      }
      continue;
    }

    const double src_freq =
        o.freq_mhz > 0
            ? o.freq_mhz
            : (o.core_type >= 0 ? platform.params_of_type(o.core_type).freq_mhz
                                : platform.params_of_type(0).freq_mhz);

    // The measured-cell condition is class-determined too (it reads only
    // the class's type/frequency and the thread's own observation).
    for (std::size_t k = 0; k < classes.size(); ++k) {
      const CoreClass& cg = classes[k];
      double ipc;
      double watts;
      if (cg.type == o.core_type && std::abs(cg.dst_freq - src_freq) < 1e-6) {
        ipc = o.ipc;                        // measured (Eq. 4)
        watts = std::max(1e-4, o.power_w);  // measured (Eq. 5)
      } else {
        ipc = predictor.predict_ipc(o, cg.type, src_freq, cg.dst_freq);
        watts = predictor.predict_power(cg.type, ipc) * cg.power_scale;
      }
      out.s.at(i, k) = ipc * cg.dst_freq / 1000.0;  // GIPS
      out.p.at(i, k) = watts;
    }
  }
  return out;
}

}  // namespace sb::core
