// The precision-ladder policy shared by the adaptive least-squares driver
// (core/adaptive_lsq.hpp) and the path tracker's per-step ladder
// (path/tracker.hpp), DESIGN.md section 4.
//
// One rung refines an iterate against live factors: the caller measures
// the residual with its own arithmetic, this loop turns the measurement
// into a backward error eta = norm / scale and a forward estimate
// cond * eta, and decides whether the rung accepts, has reached its
// measurement floor (climb; the factors are still healthy), has
// stagnated (the factors are exhausted), or measured a non-finite value
// (stop).  Between rungs, must_refactor says whether the live factors can
// still drive refinement at all — the three-precision refinement framing
// of Carson & Higham (SISC 2018): factors at one precision, residuals at
// the rung's, contraction rate cond * eps(factors).
//
// Each driver keeps its own walk over the rungs: after a stagnation the
// adaptive driver refactorizes at the next rung, while the tracker
// restarts the step at the stagnating rung (or halves h on its first).
#pragma once

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/batch_report.hpp"

namespace mdlsq::core {

namespace detail {

// Unit roundoff of an N-limb multiple-double, 2^(2 - 53 N), clamped at
// the smallest normal double.  The old repeated-halving loop drifted
// through gradual underflow past ~19 limbs (subnormal at d20, exactly
// zero at d21), which degenerated every cond * eps acceptance test.  The
// clamp keeps eps meaningful (and conservative: larger than the true
// value) from d20 upward; d16 (2^-846) is still exactly representable
// and unaffected.
inline double eps_of_limbs(int limbs) noexcept {
  return std::max(std::ldexp(4.0, -53 * limbs),
                  std::numeric_limits<double>::min());
}

}  // namespace detail

// Why a rung's refinement loop stopped, in the order the loop checks.
enum class RungExit {
  nonfinite,  // the residual norm or its scale is NaN or infinite
  accepted,   // cond * eta <= tol, or an exactly zero residual
  floor,      // eta reached the rung's measurement floor: climb
  stagnated,  // eta stopped halving, or the iteration cap ran out
};

// A rung's measurement floor, 64 m eps(limbs): reaching it exhausts the
// rung without condemning the factors.
inline double rung_floor(int m, int limbs) noexcept {
  return 64.0 * m * detail::eps_of_limbs(limbs);
}

// Factors at factor_limbs can no longer drive refinement: each sweep
// gains fewer than two digits.  A NaN cond compares false and keeps them.
inline bool must_refactor(double cond, int factor_limbs) noexcept {
  return cond * detail::eps_of_limbs(factor_limbs) > 1e-2;
}

// What a caller's residual measurement hands the loop: the plain-double
// norm of the residual (or gradient) and the backward-error scale.
struct ResidualNorm {
  double norm;
  double scale;
};

// The refinement loop of one rung.  residual() measures the current
// iterate; correct() runs one correction solve and updates the iterate.
// Writes rs.backward_error, rs.forward_estimate, rs.accepted and
// rs.refine_iterations (the number of corrections run).
template <class ResidualFn, class CorrectFn>
RungExit refine_rung(double tol, double cond, double floor, int max_iters,
                     util::RungStats& rs, ResidualFn&& residual,
                     CorrectFn&& correct) {
  double prev = std::numeric_limits<double>::infinity();
  for (int iter = 0;; ++iter) {
    auto [norm, scale] = residual();
    if (scale <= 0.0) scale = 1.0;
    if (!std::isfinite(norm) || !std::isfinite(scale)) {
      rs.backward_error = rs.forward_estimate =
          std::numeric_limits<double>::quiet_NaN();
      return RungExit::nonfinite;
    }
    const double eta = norm / scale;
    rs.backward_error = eta;
    rs.forward_estimate = cond * eta;

    if (rs.forward_estimate <= tol || norm == 0.0) {
      rs.accepted = true;
      return RungExit::accepted;
    }
    if (eta <= floor) return RungExit::floor;
    if (eta > prev * 0.5 || iter >= max_iters) return RungExit::stagnated;
    prev = eta;

    correct();
    rs.refine_iterations = iter + 1;
  }
}

}  // namespace mdlsq::core
