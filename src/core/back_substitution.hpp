// Reference (host) back substitution for upper triangular systems (the
// tiled back substitution's reference, on mdreal operators), and the host
// least-squares baseline over the reference QR, which runs the
// correction solve's bodies.
#pragma once

#include <cassert>
#include <span>

#include "blas/gemm.hpp"
#include "blas/matrix.hpp"
#include "blas/panel.hpp"
#include "core/householder.hpp"
#include "device/staged.hpp"

namespace mdlsq::core {

// Index of the first exactly-zero diagonal pivot of a triangular matrix
// (either orientation), or -1 when every pivot is nonzero and the
// triangular solve is well-posed.  The test is exact: a renormalized
// multiple double is zero iff all its limbs are zero, so no tolerance is
// involved — this flags exact singularity, not ill conditioning.
template <class T>
int zero_pivot_index(const blas::Matrix<T>& t) {
  assert(t.rows() == t.cols());
  // Exact limb test — |pivot|^2 would underflow below 2^-538 and
  // misreport tiny-but-regular diagonals.
  for (int i = 0; i < t.rows(); ++i)
    if (t(i, i).is_zero()) return i;
  return -1;
}

// Solves U x = b for upper triangular U (nonzero diagonal).
template <class T>
blas::Vector<T> back_substitute(const blas::Matrix<T>& u,
                                std::span<const T> b) {
  const int n = u.rows();
  assert(u.cols() == n && static_cast<int>(b.size()) == n);
  blas::Vector<T> x(n);
  for (int i = n - 1; i >= 0; --i) {
    T s = b[i];
    for (int j = i + 1; j < n; ++j) s -= u(i, j) * x[j];
    x[i] = s / u(i, i);
  }
  return x;
}

// Solves min ||b - A x||_2 with an already-computed QR factorization of
// A: y = (Q^H b)[0:c], then back substitution on the leading block of R.
// The body of least_squares_host, and the host reference that the
// device-priced correction solve (correction_solve_staged_run,
// core/refinement.hpp) matches limb for limb: Q's leading c columns and
// R's leading triangle are copied into limb planes and the same two
// bodies run on them (blas/panel.hpp).
template <class T>
blas::Vector<T> least_squares_with_factors(const QrFactors<T>& f,
                                           std::span<const T> b) {
  const int m = f.q.rows(), c = f.r.cols();
  assert(static_cast<int>(b.size()) == m);
  device::Staged2D<T> q(m, c), r_top(c, c);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < c; ++j) q.set(i, j, f.q(i, j));
  for (int i = 0; i < c; ++i)
    for (int j = i; j < c; ++j) r_top.set(i, j, f.r(i, j));
  blas::Vector<T> y(c);
  blas::gemv_adjoint_cols<T>(q.view(), b, std::span<T>(y));
  return blas::back_substitute_view<T>(r_top.view(), std::span<const T>(y));
}

// Host least-squares baseline: x = argmin ||b - A x||_2 via Householder QR
// and back substitution on the leading C-by-C block of R.
template <class T>
blas::Vector<T> least_squares_host(const blas::Matrix<T>& a,
                                   std::span<const T> b) {
  assert(static_cast<int>(b.size()) == a.rows());
  return least_squares_with_factors(householder_qr(a), b);
}

}  // namespace mdlsq::core
