// Fixed-point transcendental functions for the in-kernel optimizer.
//
// The paper's Algorithm 1 computes the SA acceptance probability
// e^(-diff/accept) with a "custom fixed-point implementation of e^x that
// trades off performance with precision". We implement e^x for x <= 0 via
// binary range reduction over a small table of e^(-2^k) constants — no
// division, no polynomial, ~16 multiplies worst case.
#pragma once

#include "common/fixed_point.h"

namespace sb {

/// e^x in Q16.16 for x <= 0. Inputs below ~-11 underflow to 0 (the smallest
/// representable positive Q16.16 value is 2^-16 ≈ e^-11.09).
/// Precondition relaxation: positive inputs are clamped to 0 (returns 1).
Fixed fixed_exp_neg(Fixed x);

}  // namespace sb
