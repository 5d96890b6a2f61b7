// Panel kernels of the blocked pipelines, written against the element
// accessor interface of blas::StagedView (blas/staged_view.hpp) that the
// task-graph bodies use on resident planes (DESIGN.md §5, §8).
//
// These are the bodies the tiled back substitution and the
// factor-reusing correction solves launch; each states its exact
// multiple-double operation order, which is what makes the staged-
// resident path limb-identical to the host reference loops and the
// measured tallies equal to the analytic declarations at every
// parallelism width:
//
//   gemv_adjoint_cols   y[j] = (A^H x)[j]          — dotc per column,
//                       ascending row order (Q^H b, Q^H r)
//   back_substitute_view  U x = b, one chain from the last row up, each
//                       row's dots in ascending column order — identical
//                       to core::back_substitute
//   invert_upper_tile   V = U^{-1} column by column (V e_k solve), the
//                       diagonal-tile inversion of Algorithm 1
//
// gemm_block (blas/gemm.hpp) stays the accessor-generic matrix-matrix
// block kernel; views plug into it directly.  The blocked QR's panel
// dots, rank-1 apply and WY products live in blas/fused.hpp.
#pragma once

#include <span>
#include <stdexcept>
#include <vector>

#include "blas/matrix.hpp"
#include "blas/staged_view.hpp"

namespace mdlsq::blas {

// y[j] = sum_i conj(a(i, j)) * x[i] for j in [j0, j1) — Q^H b / Q^H r.
template <class T, class View>
void gemv_adjoint_cols(const View& a, std::span<const T> x, std::span<T> y,
                       int j0, int j1) {
  const int rows = a.rows();
  for (int j = j0; j < j1; ++j) {
    T s{};
    for (int i = 0; i < rows; ++i) s += conj_of(a.get(i, j)) * x[i];
    y[static_cast<std::size_t>(j)] = s;
  }
}

// y(r) = sum_t a(r, t) * x(t), dots in ascending t order — the small
// tile gemv (x_i = U_i^{-1} b_i of Algorithm 1's bottom-up walk).  `x`
// and `y` are element accessors so staged vectors plug in directly.
template <class T, class View, class XAt, class YOut>
void gemv_rows(const View& a, XAt&& x, YOut&& y) {
  const int rows = a.rows(), cols = a.cols();
  for (int r = 0; r < rows; ++r) {
    T s{};
    for (int t = 0; t < cols; ++t) s += a.get(r, t) * x(t);
    y(r, s);
  }
}

// Solves U x = b for the upper triangular view U — the same operation
// order as core::back_substitute (one fms per superdiagonal element in
// ascending column order, one division per row, last row first).
template <class T, class View>
Vector<T> back_substitute_view(const View& u, std::span<const T> b) {
  const int n = u.rows();
  if (u.cols() != n || static_cast<int>(b.size()) != n)
    throw std::invalid_argument(
        "mdlsq: back_substitute_view needs a square view and a matching "
        "right-hand side");
  Vector<T> x(static_cast<std::size_t>(n));
  for (int i = n - 1; i >= 0; --i) {
    T s = b[static_cast<std::size_t>(i)];
    for (int j = i + 1; j < n; ++j)
      s -= u.get(i, j) * x[static_cast<std::size_t>(j)];
    x[static_cast<std::size_t>(i)] = s / u.get(i, i);
  }
  return x;
}

// V = U^{-1} for one n-by-n upper triangular tile: per column k solve
// U v = e_k (thread k of the paper's Algorithm 1 stage-1 block), row
// j's dot reduced in ascending t order.  V is written row-major into
// `vinv` (size n*n).
template <class T, class View>
void invert_upper_tile(const View& u, std::span<T> vinv) {
  const int n = u.rows();
  if (u.cols() != n || static_cast<int>(vinv.size()) != n * n)
    throw std::invalid_argument(
        "mdlsq: invert_upper_tile needs a square view and an n*n output");
  for (int k = 0; k < n; ++k) {
    // Fresh per column: entries below the diagonal stay exactly zero
    // (the inverse of an upper triangular tile is upper triangular).
    std::vector<T> v(static_cast<std::size_t>(n));
    v[static_cast<std::size_t>(k)] = T(1.0) / u.get(k, k);
    for (int j = k - 1; j >= 0; --j) {
      T s{};
      for (int t = j + 1; t <= k; ++t)
        s += u.get(j, t) * v[static_cast<std::size_t>(t)];
      v[static_cast<std::size_t>(j)] = -s / u.get(j, j);
    }
    for (int j = 0; j < n; ++j)
      vinv[static_cast<std::size_t>(j) * n + k] = v[static_cast<std::size_t>(j)];
  }
}

}  // namespace mdlsq::blas
