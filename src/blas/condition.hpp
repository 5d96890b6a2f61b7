// Cheap triangular condition estimation, reusing the R factor of a QR
// factorization (no refactorization, no inverse).
//
// The estimator is the classical two-phase LINPACK / Cline-Moler-Stewart-
// Wilkinson scheme on the leading n-by-n block of an upper triangular R:
//
//   1. solve R^T z = d, choosing d_i = +/-1 on the fly to maximize the
//      growth of z (the "look-behind" heuristic);
//   2. solve R y = z; then ||y||_inf / ||z||_inf lower-bounds
//      ||R^{-1}||_inf because z is deliberately rich in the directions
//      R^{-1} amplifies.
//
// The estimate  cond = ||R||_inf * ||y||_inf / ||z||_inf  is a lower bound
// of kappa_inf(R), in practice within a small factor of the truth, at
// O(n^2) multiple-double operations — negligible next to the O(m n^2)
// factorization it piggybacks on.  The adaptive precision-ladder solver
// (core/adaptive_lsq.hpp) launches it once per factorization rung; its
// operation count is fixed by the input dimension alone (tri_condition_ops),
// so the launch can declare an exact analytic tally.
//
// When cond * eps of the working precision approaches 1 the R factor
// itself is dominated by rounding noise and the estimate saturates around
// 1/eps; that is exactly the regime where the ladder must escalate, so a
// saturated (huge) answer still drives the right decision.
//
// The estimator is view-generic: it reads R through get(i, j), so the
// drivers estimate on a resident triangle's blas::StagedView without
// unstaging it, and a host blas::Matrix gives the same bits and tally.
#pragma once

#include <cmath>
#include <limits>
#include <stdexcept>
#include <type_traits>

#include "blas/matrix.hpp"
#include "blas/scalar.hpp"
#include "md/op_counts.hpp"

namespace mdlsq::blas {

struct TriCondEstimate {
  double norm = 0.0;          // ||R||_inf (max row sum of absolutes)
  double inv_norm_est = 0.0;  // lower bound of ||R^{-1}||_inf
  double cond = 0.0;          // norm * inv_norm_est; inf on a zero pivot
  int zero_pivot = -1;        // first exactly-zero diagonal, or -1
};

// Exact multiple-double operation tally of tri_condition_inf on an n-by-n
// block with a REAL scalar type: the two triangular solves and the row-sum
// norm have data-independent counts (sign choices and comparisons use no
// counted operations).  Declared by the "cond est" device launch.
constexpr md::OpTally tri_condition_ops(int n) noexcept {
  const std::int64_t half = std::int64_t(n) * (n - 1) / 2;
  return {.add = 2 * half,        // row sums + forward-solve dots
          .sub = std::int64_t(n) + half,  // (d - s) and back-solve updates
          .mul = 2 * half,        // the two triangular solves' products
          .div = 2 * std::int64_t(n)};
}

// Condition estimate of the leading n-by-n upper triangular block of r.
// Real scalars only: the adaptive ladder runs on mdreal problems, and a
// complex variant would need |z| square roots with data-dependent cost.
template <class View>
TriCondEstimate tri_condition_inf(const View& r, int n) {
  using T = std::remove_cvref_t<decltype(r.get(0, 0))>;
  static_assert(!is_complex_v<T>,
                "tri_condition_inf estimates real triangular factors");
  if (n < 1 || r.rows() < n || r.cols() < n)
    throw std::invalid_argument(
        "mdlsq: tri_condition_inf requires 1 <= n <= min(rows, cols)");
  TriCondEstimate est;

  // Record (but do not bail on) an exactly-zero pivot: the solves below
  // run regardless, on infinities, so the operation count stays the
  // data-independent tri_condition_ops(n) that the device launch declares
  // — the measured-vs-analytic exactness invariant must hold on
  // rank-deficient input too.  Every arithmetic operator counts before
  // its non-finite shortcut.
  for (int i = 0; i < n; ++i)
    if (est.zero_pivot < 0 && r.get(i, i).is_zero()) est.zero_pivot = i;

  // ||R||_inf: max row sum of absolutes (abs and compares are free of
  // multiple-double operations; the adds are counted).
  T rowmax{};
  for (int i = 0; i < n; ++i) {
    T s = abs_of(r.get(i, i));
    for (int j = i + 1; j < n; ++j) s += abs_of(r.get(i, j));
    if (rowmax < s) rowmax = s;
  }
  est.norm = rowmax.to_double();

  // Phase 1: R^T z = d with growth-maximizing d_i = -sign(s).
  Vector<T> z(n);
  for (int i = 0; i < n; ++i) {
    T s{};
    for (int j = 0; j < i; ++j) s += r.get(j, i) * z[j];
    const double d = s.is_negative() ? 1.0 : -1.0;
    z[i] = (T(d) - s) / r.get(i, i);
  }

  // Phase 2: R y = z.
  Vector<T> y(n);
  for (int i = n - 1; i >= 0; --i) {
    T s = z[i];
    for (int j = i + 1; j < n; ++j) s -= r.get(i, j) * y[j];
    y[i] = s / r.get(i, i);
  }

  double zmax = 0.0, ymax = 0.0;
  for (int i = 0; i < n; ++i) {
    zmax = std::max(zmax, std::fabs(z[i].to_double()));
    ymax = std::max(ymax, std::fabs(y[i].to_double()));
  }
  est.inv_norm_est = zmax > 0.0 ? ymax / zmax : 0.0;
  est.cond = est.norm * est.inv_norm_est;
  if (est.zero_pivot >= 0 || !std::isfinite(est.cond))
    est.cond = std::numeric_limits<double>::infinity();
  return est;
}

}  // namespace mdlsq::blas
