#include "workload/benchmarks.h"

#include <algorithm>
#include <map>
#include <stdexcept>

namespace sb::workload {
namespace {

/// Adapter so Benchmark::spawn can jitter profiles from an sb::Rng.
class RngJitter final : public JitterSource {
 public:
  explicit RngJitter(Rng& rng) : rng_(rng) {}
  double gaussian() override { return rng_.gaussian(); }

 private:
  Rng& rng_;
};

// Shorthand for building a profile. Arguments in the order they matter for
// the balancer: ILP, instruction mix, branch behaviour, memory behaviour.
WorkloadProfile prof(const std::string& name, double ilp, double mem_share,
                     double branch_share, double mispredict, double fp_i_kb,
                     double fp_d_kb, double alpha, double mr_i, double mr_d,
                     double l2_ratio, double mlp, double activity) {
  WorkloadProfile p;
  p.name = name;
  p.ilp = ilp;
  p.mem_share = mem_share;
  p.branch_share = branch_share;
  p.mispredict_rate = mispredict;
  p.footprint_i_kb = fp_i_kb;
  p.footprint_d_kb = fp_d_kb;
  p.locality_alpha = alpha;
  p.mr_l1i_ref = mr_i;
  p.mr_l1d_ref = mr_d;
  p.mr_itlb_ref = 0.0004 + 0.002 * (fp_d_kb > 512 ? 1.0 : fp_d_kb / 512.0) * 0.2;
  p.mr_dtlb_ref = 0.001 + 0.006 * (fp_d_kb > 2048 ? 1.0 : fp_d_kb / 2048.0);
  p.l2_miss_ratio = l2_ratio;
  p.mlp = mlp;
  p.activity = activity;
  p.validate();
  return p;
}

Phase phase(WorkloadProfile p, std::uint64_t insts) {
  return Phase{std::move(p), insts};
}

Benchmark blackscholes() {
  // Small-footprint floating-point kernel: high ILP, few branches, tiny
  // working set, very cache friendly.
  Benchmark b;
  b.name = "blackscholes";
  b.phases = {
      phase(prof("bs.price", 3.4, 0.18, 0.08, 0.008, 8, 24, 1.6, 0.002, 0.015,
                 0.15, 2.5, 1.15),
            60'000'000),
      phase(prof("bs.reduce", 2.6, 0.24, 0.12, 0.015, 8, 48, 1.4, 0.003, 0.025,
                 0.20, 2.0, 1.05),
            20'000'000),
  };
  return b;
}

Benchmark bodytrack() {
  // Vision pipeline: alternating compute (particle weights) and branchy
  // tree-walk phases with a mid-sized working set.
  Benchmark b;
  b.name = "bodytrack";
  b.phases = {
      phase(prof("bt.weights", 2.4, 0.26, 0.14, 0.030, 24, 160, 1.2, 0.008,
                 0.045, 0.30, 1.8, 1.0),
            40'000'000),
      phase(prof("bt.track", 1.8, 0.30, 0.19, 0.055, 32, 256, 1.0, 0.012,
                 0.060, 0.35, 1.5, 0.9),
            30'000'000),
  };
  return b;
}

Benchmark canneal() {
  // Simulated annealing over a netlist: pointer chasing over a huge working
  // set — the classic memory-bound, low-ILP PARSEC benchmark.
  Benchmark b;
  b.name = "canneal";
  b.phases = {
      phase(prof("cn.swap", 1.2, 0.38, 0.16, 0.060, 16, 8192, 0.7, 0.004,
                 0.140, 0.65, 1.2, 0.75),
            30'000'000),
      phase(prof("cn.eval", 1.5, 0.33, 0.14, 0.045, 16, 4096, 0.8, 0.004,
                 0.110, 0.55, 1.4, 0.85),
            20'000'000),
  };
  return b;
}

Benchmark dedup() {
  // Pipelined compression: hashing (compute) + chunk store (memory).
  Benchmark b;
  b.name = "dedup";
  b.phases = {
      phase(prof("dd.hash", 2.2, 0.24, 0.11, 0.020, 16, 96, 1.3, 0.005, 0.035,
                 0.25, 2.0, 1.05),
            35'000'000),
      phase(prof("dd.store", 1.4, 0.36, 0.13, 0.035, 24, 1536, 0.9, 0.007,
                 0.095, 0.50, 1.4, 0.85),
            25'000'000),
  };
  return b;
}

Benchmark ferret() {
  // Content-based similarity search pipeline; mixed behaviour.
  Benchmark b;
  b.name = "ferret";
  b.phases = {
      phase(prof("fe.extract", 2.6, 0.22, 0.12, 0.022, 24, 128, 1.3, 0.006,
                 0.040, 0.28, 1.9, 1.0),
            30'000'000),
      phase(prof("fe.rank", 1.7, 0.31, 0.16, 0.040, 32, 768, 1.0, 0.010,
                 0.075, 0.45, 1.5, 0.9),
            30'000'000),
  };
  return b;
}

Benchmark fluidanimate() {
  // SPH fluid dynamics: regular compute with neighbor-list gathers.
  Benchmark b;
  b.name = "fluidanimate";
  b.phases = {
      phase(prof("fl.force", 2.9, 0.27, 0.07, 0.012, 12, 192, 1.4, 0.003,
                 0.050, 0.35, 2.2, 1.1),
            45'000'000),
      phase(prof("fl.rebin", 1.6, 0.34, 0.12, 0.028, 16, 384, 1.0, 0.005,
                 0.070, 0.40, 1.6, 0.9),
            15'000'000),
  };
  return b;
}

Benchmark freqmine() {
  // FP-growth data mining: branchy tree traversal, moderate footprint.
  Benchmark b;
  b.name = "freqmine";
  b.phases = {
      phase(prof("fm.grow", 1.9, 0.29, 0.22, 0.070, 48, 512, 1.0, 0.015,
                 0.065, 0.40, 1.5, 0.9),
            40'000'000),
      phase(prof("fm.scan", 2.3, 0.31, 0.15, 0.035, 32, 256, 1.2, 0.008,
                 0.050, 0.30, 1.8, 1.0),
            20'000'000),
  };
  return b;
}

Benchmark streamcluster() {
  // Online clustering: streaming distance computations — bandwidth-bound
  // with little temporal locality (low alpha).
  Benchmark b;
  b.name = "streamcluster";
  b.phases = {
      phase(prof("sc.dist", 2.0, 0.35, 0.06, 0.010, 8, 4096, 0.5, 0.002,
                 0.120, 0.75, 2.8, 0.95),
            50'000'000),
      phase(prof("sc.center", 2.4, 0.28, 0.10, 0.018, 8, 512, 0.9, 0.003,
                 0.060, 0.45, 2.0, 1.0),
            15'000'000),
  };
  return b;
}

Benchmark swaptions() {
  // Monte-Carlo HJM pricing: the most compute-bound PARSEC member.
  Benchmark b;
  b.name = "swaptions";
  b.phases = {
      phase(prof("sw.sim", 3.8, 0.16, 0.07, 0.006, 8, 16, 1.8, 0.001, 0.010,
                 0.10, 2.5, 1.2),
            70'000'000),
      phase(prof("sw.sort", 2.0, 0.28, 0.16, 0.045, 12, 64, 1.2, 0.004, 0.030,
                 0.25, 1.7, 0.95),
            10'000'000),
  };
  return b;
}

Benchmark vips() {
  // Image transform pipeline: wide SIMD-ish loops over image rows.
  Benchmark b;
  b.name = "vips";
  b.phases = {
      phase(prof("vp.conv", 3.0, 0.30, 0.06, 0.009, 12, 1024, 0.8, 0.003,
                 0.080, 0.55, 2.4, 1.1),
            40'000'000),
      phase(prof("vp.pack", 2.2, 0.33, 0.11, 0.020, 12, 256, 1.1, 0.004,
                 0.050, 0.35, 1.9, 1.0),
            15'000'000),
  };
  return b;
}

// --- x264 variants (Table 3) -------------------------------------------
//
// The paper stresses that a single benchmark exhibits different IPS and
// power depending on configuration (H/L frame processing rate) and input
// video (crew vs bowing). We encode that: crew (high motion) is more
// memory/branch intensive; bowing (static scene) is more compute-regular.
// The H rate raises per-frame work and ILP utilization; the L rate lowers
// load and adds inter-frame waits.

Benchmark x264(bool high_rate, bool crew) {
  Benchmark b;
  b.name = std::string("x264_") + (high_rate ? "H" : "L") + "_" +
           (crew ? "crew" : "bow");
  const double motion = crew ? 1.0 : 0.45;  // motion intensity of the input
  // Motion estimation: data-hungry search, branchy on crew.
  WorkloadProfile me =
      prof(b.name + ".me", 2.1 + (high_rate ? 0.5 : 0.0), 0.30 + 0.06 * motion,
           0.15 + 0.05 * motion, 0.030 + 0.035 * motion, 32,
           512 + 1024 * motion, 1.0, 0.008, 0.055 + 0.040 * motion,
           0.35 + 0.15 * motion, 1.7, 0.95 + 0.15 * (high_rate ? 1 : 0));
  // Transform + entropy coding: compute-regular, small footprint.
  WorkloadProfile enc =
      prof(b.name + ".enc", 2.8 + (high_rate ? 0.4 : 0.0), 0.22, 0.12,
           0.018, 24, 128, 1.3, 0.006, 0.035, 0.25, 2.0,
           1.05 + 0.10 * (high_rate ? 1 : 0));
  const std::uint64_t frame_insts = high_rate ? 30'000'000 : 12'000'000;
  b.phases = {phase(std::move(me), frame_insts),
              phase(std::move(enc), frame_insts / 2)};
  if (!high_rate) {
    // Low frame-rate: the encoder waits for frames — mild interactivity.
    b.burst_instructions = 18'000'000;
    b.sleep_mean_ns = milliseconds(8);
  }
  return b;
}

}  // namespace

char level_letter(Level l) {
  switch (l) {
    case Level::Low:
      return 'L';
    case Level::Medium:
      return 'M';
    case Level::High:
      return 'H';
  }
  return '?';
}

Level level_from_letter(char c) {
  switch (c) {
    case 'L':
      return Level::Low;
    case 'M':
      return Level::Medium;
    case 'H':
      return Level::High;
    default:
      throw std::out_of_range("bad level letter");
  }
}

std::vector<ThreadBehavior> Benchmark::spawn(int nthreads, Rng& rng) const {
  if (nthreads <= 0) throw std::invalid_argument("Benchmark::spawn: nthreads");
  RngJitter jitter(rng);
  std::vector<ThreadBehavior> out;
  out.reserve(static_cast<std::size_t>(nthreads));
  for (int t = 0; t < nthreads; ++t) {
    ThreadBehavior tb;
    tb.name = name + "/" + std::to_string(t);
    tb.phases.reserve(phases.size());
    for (const auto& ph : phases) {
      Phase jp = ph;
      jp.profile = ph.profile.jittered(thread_jitter, jitter);
      // Stagger phase lengths slightly so sibling threads desynchronize.
      jp.instructions = static_cast<std::uint64_t>(
          static_cast<double>(ph.instructions) * rng.uniform(0.9, 1.1));
      tb.phases.push_back(std::move(jp));
    }
    // Rotate the starting phase so workers are not in lockstep.
    std::rotate(tb.phases.begin(),
                tb.phases.begin() + (t % static_cast<int>(tb.phases.size())),
                tb.phases.end());
    tb.total_instructions = per_thread_instructions;
    tb.burst_instructions = burst_instructions;
    tb.sleep_mean_ns = sleep_mean_ns;
    tb.validate();
    out.push_back(std::move(tb));
  }
  return out;
}

std::vector<std::string> BenchmarkLibrary::parsec_names() {
  return {"blackscholes", "bodytrack",     "canneal",  "dedup",
          "ferret",       "fluidanimate",  "freqmine", "streamcluster",
          "swaptions",    "vips"};
}

std::vector<std::string> BenchmarkLibrary::x264_names() {
  return {"x264_H_crew", "x264_H_bow", "x264_L_crew", "x264_L_bow"};
}

std::vector<std::string> BenchmarkLibrary::imb_names() {
  std::vector<std::string> names;
  for (char t : {'H', 'M', 'L'}) {
    for (char i : {'H', 'M', 'L'}) {
      names.push_back(std::string("IMB_") + t + "T" + i + "I");
    }
  }
  return names;
}

Benchmark BenchmarkLibrary::imb(Level throughput, Level interactivity) {
  Benchmark b;
  b.name = std::string("IMB_") + level_letter(throughput) + "T" +
           level_letter(interactivity) + "I";

  // Throughput level sets how demanding the compute bursts are.
  double ilp = 1.5, mem = 0.32, fp_d = 768, mr_d = 0.080, act = 0.85;
  std::uint64_t burst = 3'000'000;
  switch (throughput) {
    case Level::High:
      ilp = 3.2;
      mem = 0.20;
      fp_d = 96;
      mr_d = 0.030;
      act = 1.15;
      burst = 20'000'000;
      break;
    case Level::Medium:
      ilp = 2.2;
      mem = 0.27;
      fp_d = 256;
      mr_d = 0.055;
      act = 1.0;
      burst = 8'000'000;
      break;
    case Level::Low:
      break;  // defaults above
  }

  // Interactivity level sets the sleep/wait periods between bursts.
  TimeNs sleep = 0;
  switch (interactivity) {
    case Level::High:
      sleep = milliseconds(24);
      break;
    case Level::Medium:
      sleep = milliseconds(8);
      break;
    case Level::Low:
      sleep = milliseconds(2);
      break;
  }

  b.phases = {
      phase(prof(b.name + ".work", ilp, mem, 0.14, 0.030, 16, fp_d, 1.1,
                 0.006, mr_d, 0.40, 1.8, act),
            burst * 3),
      phase(prof(b.name + ".setup", ilp * 0.7, mem + 0.05, 0.18, 0.045, 24,
                 fp_d * 1.5, 1.0, 0.009, mr_d * 1.3, 0.45, 1.5, act * 0.9),
            burst),
  };
  b.burst_instructions = burst;
  b.sleep_mean_ns = sleep;
  b.thread_jitter = 0.08;
  return b;
}

const Benchmark& BenchmarkLibrary::get(const std::string& name) {
  // Built on first use (thread-safe static init); later lookups share it.
  static const std::map<std::string, Benchmark> kLibrary = [] {
    std::map<std::string, Benchmark> lib;
    for (const Benchmark& b :
         {blackscholes(), bodytrack(), canneal(), dedup(), ferret(),
          fluidanimate(), freqmine(), streamcluster(), swaptions(), vips(),
          x264(true, true), x264(true, false), x264(false, true),
          x264(false, false)}) {
      lib.emplace(b.name, b);
    }
    for (const Level t : {Level::High, Level::Medium, Level::Low}) {
      for (const Level i : {Level::High, Level::Medium, Level::Low}) {
        const Benchmark b = imb(t, i);
        lib.emplace(b.name, b);
      }
    }
    return lib;
  }();
  const auto it = kLibrary.find(name);
  if (it == kLibrary.end()) {
    throw std::out_of_range("unknown benchmark: " + name);
  }
  return it->second;
}

}  // namespace sb::workload
