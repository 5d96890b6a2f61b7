// Reference (host) back substitution for upper triangular systems, and
// the host least-squares baseline combining it with the reference QR.
#pragma once

#include <cassert>
#include <span>

#include "blas/gemm.hpp"
#include "blas/matrix.hpp"
#include "core/householder.hpp"

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
// core/refinement.hpp) matches limb for limb.
template <class T>
blas::Vector<T> least_squares_with_factors(const QrFactors<T>& f,
                                           std::span<const T> b) {
  const int m = f.q.rows(), c = f.r.cols();
  assert(static_cast<int>(b.size()) == m);
  blas::Vector<T> y(c);
  for (int j = 0; j < c; ++j) {
    T s{};
    for (int i = 0; i < m; ++i) s += blas::conj_of(f.q(i, j)) * b[i];
    y[j] = s;
  }
  blas::Matrix<T> r_top(c, c);
  for (int i = 0; i < c; ++i)
    for (int j = i; j < c; ++j) r_top(i, j) = f.r(i, j);
  return back_substitute(r_top, std::span<const T>(y));
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
