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
//                       row's fms chain in ascending column order, then
//                       one division
//   invert_upper_tile   V = U^{-1} column by column (V e_k solve), the
//                       diagonal-tile inversion of Algorithm 1
//
// The first two are the correction solve's bodies (core/refinement.hpp
// and its host reference least_squares_with_factors).  For a real
// mdreal<N> they run the fused N-limb sequences of blas/fused.hpp: the
// adjoint gemv is fused::gemm_nn on a one-row plane copy of x (lanes
// across the outputs), the back substitution's per-row chain is
// fused::fms_chain, and each row's division stays mdreal's operator.
// Complex scalars run the same orders on the accessors and operators.
// gemv_rows and invert_upper_tile (the tiled back substitution) stay on
// operators.
//
// gemm_block (blas/gemm.hpp) stays the accessor-generic matrix-matrix
// block kernel; views plug into it directly.  The blocked QR's panel
// dots, rank-1 apply and WY products live in blas/fused.hpp.
#pragma once

#include <span>
#include <stdexcept>
#include <vector>

#include "blas/fused.hpp"
#include "blas/matrix.hpp"
#include "blas/staged_view.hpp"

namespace mdlsq::blas {

namespace detail {
// A one-row view of n elements over `buf`, zero-filled: the limb-plane
// form in which the fused kernels read and write a host vector.
template <class T>
StagedView<T> row_planes(std::vector<double>& buf, int n) {
  buf.assign(std::size_t(n) * StagedView<T>::planes, 0.0);
  return StagedView<T>(buf.data(), std::size_t(n), n, 0, 0, 1, n);
}
}  // namespace detail

// y[j] = sum_i conj(a(i, j)) * x[i] for every column j of the view, each
// dot reduced in ascending row order — Q^H b / Q^H r.
template <class T>
void gemv_adjoint_cols(const StagedView<T>& a, std::span<const T> x,
                       std::span<T> y) {
  const int rows = a.rows(), cols = a.cols();
  if (static_cast<int>(x.size()) != rows || static_cast<int>(y.size()) != cols)
    throw std::invalid_argument(
        "mdlsq: gemv_adjoint_cols needs x with a row's and y with a "
        "column's length");
  if constexpr (scalar_traits<T>::is_complex) {
    for (int j = 0; j < cols; ++j) {
      T s{};
      for (int i = 0; i < rows; ++i) s += conj_of(a.get(i, j)) * x[i];
      y[static_cast<std::size_t>(j)] = s;
    }
  } else {
    std::vector<double> xb, yb;
    const auto xv = detail::row_planes<T>(xb, rows);
    const auto yv = detail::row_planes<T>(yb, cols);
    for (int i = 0; i < rows; ++i) xv.set(0, i, x[static_cast<std::size_t>(i)]);
    fused::gemm_nn(xv, a, yv, 0, 1, 0, cols, 0, rows);
    for (int j = 0; j < cols; ++j) y[static_cast<std::size_t>(j)] = yv.get(0, j);
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

// Solves U x = b for the upper triangular view U: last row first, each
// row one fms per superdiagonal element in ascending column order, then
// one division.  x is kept as limb planes too, for the fms chains.
template <class T>
Vector<T> back_substitute_view(const StagedView<T>& u, std::span<const T> b) {
  const int n = u.rows();
  if (u.cols() != n || static_cast<int>(b.size()) != n)
    throw std::invalid_argument(
        "mdlsq: back_substitute_view needs a square view and a matching "
        "right-hand side");
  Vector<T> x(static_cast<std::size_t>(n));
  std::vector<double> xb;
  const auto xv = detail::row_planes<T>(xb, n);
  for (int i = n - 1; i >= 0; --i) {
    const int tail = n - 1 - i;
    const T s = fused::fms_chain(b[static_cast<std::size_t>(i)],
                                 u.block(i, i + 1, 1, tail),
                                 xv.block(0, i + 1, 1, tail));
    x[static_cast<std::size_t>(i)] = s / u.get(i, i);
    xv.set(0, i, x[static_cast<std::size_t>(i)]);
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
