// Deterministic pseudo-random number generation.
//
// Algorithm 1 of the paper is specified in terms of two primitives:
//   randi()      -> uniformly distributed integer in [0, 2^32)
//   randi(x, y)  -> uniformly distributed integer in [x, y)
// We provide both on top of xorshift128+, seeded via SplitMix64 so that a
// single 64-bit seed yields a well-mixed state. Every stochastic component
// of the simulator owns its own Rng instance, which keeps experiments
// reproducible and components independent under reordering.
#pragma once

#include <bit>
#include <cmath>
#include <cstdint>

namespace sb {

/// xorshift128+ generator. Fast, small, passes BigCrush except linearity
/// tests of the lowest bit — more than adequate for simulation and for the
/// paper's SA optimizer ("trade-off performance with uniformity").
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x5eed5eed5eedULL) { reseed(seed); }

  /// Re-initializes the state from a 64-bit seed via SplitMix64.
  void reseed(std::uint64_t seed) {
    // SplitMix64: guarantees a non-zero, well-distributed state even for
    // adversarial seeds (including 0).
    auto next = [&seed]() {
      seed += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = seed;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      return z ^ (z >> 31);
    };
    s0_ = next();
    s1_ = next();
    if (s0_ == 0 && s1_ == 0) s1_ = 1;
  }

  /// Raw 64 uniform bits.
  std::uint64_t next_u64() {
    std::uint64_t x = s0_;
    const std::uint64_t y = s1_;
    s0_ = y;
    x ^= x << 23;
    s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
    return s1_ + y;
  }

  /// The paper's randi(): uniform integer in [0, 2^32).
  std::uint32_t randi() { return static_cast<std::uint32_t>(next_u64() >> 32); }

  /// The paper's randi(x, y): uniform integer in [x, y). Requires x < y.
  std::int64_t randi(std::int64_t x, std::int64_t y) {
    const std::uint64_t span = static_cast<std::uint64_t>(y - x);
    return x + static_cast<std::int64_t>(next_u64() % span);
  }

  /// Uniform double in [0, 1).
  double uniform() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Standard normal via Box–Muller (single value; spare discarded to keep
  /// the state trajectory simple and reproducible).
  double gaussian();

  /// Normal with given mean / standard deviation.
  double gaussian(double mean, double stddev) {
    return mean + stddev * gaussian();
  }

  /// Derives an independent child stream; used to give each simulated
  /// component (sensor, workload phase machine, optimizer) its own RNG.
  Rng split() { return Rng(next_u64() ^ 0xa02b'dbf7'bb3c'0a7ULL); }

 private:
  std::uint64_t s0_ = 1;
  std::uint64_t s1_ = 2;
};

/// Exact `x / d` and `x % d` for every 64-bit x, with the divisor fixed at
/// construction (the SA optimizer reduces every slot draw modulo the same
/// n·m and divides every slot by the same m). A hardware 64-bit division
/// costs ~20-40 cycles. A power-of-two divisor is a shift and a mask.
/// Otherwise the floor reciprocal r = ⌊2^64 / d⌋ gives q = ⌊x·r / 2^64⌋,
/// which is ⌊x / d⌋ or one less (x·r / 2^64 > x/d − 1), so one compare
/// corrects it: two multiplies in all. Exactness is property-tested against
/// `/` and `%` in rng_test. Requires d ≥ 1.
class FastMod {
 public:
  FastMod() : FastMod(1) {}
  explicit FastMod(std::uint64_t d)
      : d_(d),
        pow2_(std::has_single_bit(d)),
        shift_(std::countr_zero(d)),
        r_(pow2_ ? 0 : ~std::uint64_t{0} / d) {}

  std::uint64_t div(std::uint64_t x) const {
    if (pow2_) return x >> shift_;
    const std::uint64_t q = estimate(x);
    return q + (x - q * d_ >= d_ ? 1 : 0);
  }

  std::uint64_t mod(std::uint64_t x) const {
    if (pow2_) return x & (d_ - 1);
    const std::uint64_t rem = x - estimate(x) * d_;
    return rem >= d_ ? rem - d_ : rem;
  }

 private:
  /// ⌊x / d⌋ or one less. For d not a power of two, ⌊(2^64 − 1) / d⌋ is
  /// ⌊2^64 / d⌋.
  std::uint64_t estimate(std::uint64_t x) const {
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(x) * r_) >> 64);
  }

  std::uint64_t d_;
  bool pow2_;
  int shift_;
  std::uint64_t r_;  // ⌊2^64 / d⌋ unless d is a power of two
};

inline double Rng::gaussian() {
  // Box–Muller; avoids log(0) by mapping u1 into (0,1].
  double u1 = 1.0 - uniform();
  double u2 = uniform();
  constexpr double kTwoPi = 6.283185307179586;
  // std:: math is fine here: gaussian() is host-side simulation code, not
  // part of the fixed-point in-"kernel" optimizer path.
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(kTwoPi * u2);
}

}  // namespace sb
