// Truncated power-series arithmetic for the path-tracking subsystem
// (DESIGN.md §7): vector series (one blas::Vector per order) for the
// solution path x(t0 + s) = sum_k x_k s^k that the block Toeplitz solver
// produces — the tracker's predictor evaluates them by Horner, and their
// tail sets the step size.
//
// Every routine that executes multiple-double arithmetic has an
// exactly-declared operation tally companion (md/op_counts.hpp /
// core/tally_rules.hpp): the tracker launches these bodies through
// Device::launch, declaring the companion tally, and the test suite
// asserts measured == analytic, which pins the formulas to the code.
// Routines returning plain doubles (the pole-radius estimate) use
// .to_double() only and execute no counted operations.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "blas/matrix.hpp"
#include "core/tally_rules.hpp"

namespace mdlsq::path {

using core::operator*;  // OpTally scaling (core/tally_rules.hpp)

// --- vector series -----------------------------------------------------------

// Declared tally of horner_eval on m-vectors with K+1 coefficients: K
// passes of one mul + one add per component.
template <class T>
constexpr md::OpTally horner_ops(int m, int orders) noexcept {
  using O = core::ops_of<T>;
  const std::int64_t passes = orders > 1 ? orders - 1 : 0;
  return (O::mul() + O::add()) * (passes * m);
}

// x(h) = sum_k c[k] h^k by Horner — the series predictor's arithmetic.
template <class T>
blas::Vector<T> horner_eval(const std::vector<blas::Vector<T>>& c, double h) {
  if (c.empty())
    throw std::invalid_argument("mdlsq: horner_eval needs coefficients");
  const int m = static_cast<int>(c[0].size());
  const T hs(h);
  blas::Vector<T> x = c.back();
  for (int k = static_cast<int>(c.size()) - 2; k >= 0; --k)
    for (int i = 0; i < m; ++i) x[i] = c[static_cast<std::size_t>(k)][i] + x[i] * hs;
  return x;
}

// --- step-size control -------------------------------------------------------

// Ratio estimate of the convergence radius of the series (the distance to
// the nearest pole of the path, Fabry-style): ||c_{K-1}||_inf/||c_K||_inf,
// falling back to the two-order ratio sqrt(||c_{K-2}||/||c_K||) when the
// next-to-last coefficient vanishes (series even in s — e.g. quadratic
// homotopies with symmetric poles — would otherwise blind the estimate).
// Plain-double arithmetic, no counted operations.  A vanishing tail (the
// path is polynomial to this order) reports +infinity.
template <class T>
double pole_radius_estimate(const std::vector<blas::Vector<T>>& c) {
  const double inf = std::numeric_limits<double>::infinity();
  if (c.size() < 2) return inf;
  auto norm_at = [&](std::size_t k) {
    double m = 0.0;
    for (const T& v : c[k]) m = std::max(m, std::fabs(v.to_double()));
    return m;
  };
  const double head = norm_at(c.size() - 2);
  const double tail = norm_at(c.size() - 1);
  const double lead = norm_at(0);
  // A tail at the working-precision floor of the leading coefficient is
  // numerically zero: treat the path as polynomial rather than dividing
  // rounding noise by rounding noise.
  const double floor = std::max(lead, 1.0) * blas::real_of_t<T>::eps() * 64.0;
  if (tail <= floor) return inf;
  if (head > floor) return head / tail;
  if (c.size() >= 3) {
    const double prev = norm_at(c.size() - 3);
    if (prev > floor) return std::sqrt(prev / tail);
  }
  return inf;
}

}  // namespace mdlsq::path
