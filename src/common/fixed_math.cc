#include "common/fixed_math.h"

#include <array>
#include <cstdint>

namespace sb {
namespace {

// e^(-2^k) for k = 4..-16 would need 21 entries; we store e^(-2^k) for
// k in [4, -16] as Q16.16 raw values, generated from the exact doubles.
// Index i corresponds to exponent value 2^(4-i), i.e. 16, 8, 4, 2, 1, 1/2...
constexpr int kTableSize = 21;

constexpr std::array<std::int32_t, kTableSize> make_exp_table() {
  // Raw Q16.16 values of e^(-16), e^(-8), e^(-4), e^(-2), e^(-1), e^(-0.5)...
  // Computed at compile time is not possible with std::exp (not constexpr in
  // C++20 on GCC 12), so the values are precomputed literals.
  return {
      0,       // e^-16 = 1.1e-7 -> underflows Q16.16
      22,      // e^-8  = 0.000335462628
      1202,    // e^-4  = 0.018315638889
      8869,    // e^-2  = 0.135335283237
      24109,   // e^-1  = 0.367879441171
      39750,   // e^-0.5 = 0.606530659713
      51039,   // e^-0.25 = 0.778800783071
      57835,   // e^-2^-3 = 0.882496902585
      61564,   // e^-2^-4 = 0.939413062813
      63519,   // e^-2^-5 = 0.969233234476
      64519,   // e^-2^-6 = 0.984496437005
      65025,   // e^-2^-7 = 0.992217972604
      65279,   // e^-2^-8 = 0.996101369471
      65407,   // e^-2^-9 = 0.998048780520
      65471,   // e^-2^-10 = 0.999023914081
      65503,   // e^-2^-11 = 0.999511837932
      65519,   // e^-2^-12 = 0.999755889057
      65527,   // e^-2^-13 = 0.999877937066
      65531,   // e^-2^-14 = 0.999938966657
      65533,   // e^-2^-15 = 0.999969482862
      65535,   // e^-2^-16 = 0.999984741315
  };
}

constexpr std::array<std::int32_t, kTableSize> kExpTable = make_exp_table();

}  // namespace

Fixed fixed_exp_neg(Fixed x) {
  if (x.raw() >= 0) return kFixedOne;
  // Work with |x| and decompose it into a sum of powers of two; multiply the
  // corresponding e^(-2^k) factors together.
  std::uint32_t mag = static_cast<std::uint32_t>(-static_cast<std::int64_t>(x.raw()));
  // |x| >= 16 underflows to zero in Q16.16 (e^-12 = 6e-6 < 2^-16 already at
  // ~-11.1, but 16 is the table's top bucket).
  if (mag >= (16u << Fixed::kFractionBits)) return kFixedZero;

  std::int64_t acc = Fixed::kOne;
  // Bit 20 of mag corresponds to 16 (2^4 in Q16.16), table index 0.
  for (int i = 0; i < kTableSize; ++i) {
    int bit = 20 - i;
    if (mag & (1u << bit)) {
      acc = (acc * kExpTable[static_cast<std::size_t>(i)]) >> Fixed::kFractionBits;
      if (acc == 0) return kFixedZero;
    }
  }
  return Fixed::from_raw(static_cast<std::int32_t>(acc));
}

}  // namespace sb
