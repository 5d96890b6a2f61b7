// The blocked QR's hot-stage kernels over staged views: the panel column
// dots, the Householder rank-1 apply, the two gemm forms of the WY
// trailing updates and the element-wise accumulation (DESIGN.md §9).
//
// For a real multiple double mdreal<N> each wrapper runs the fused N-limb
// kernel of the runtime-dispatched SIMD table (md/simd/) on the view's
// limb planes: the same logical multiple-double operation sequence as
// the accessor-generic body — per output element the same count of adds,
// subs and muls, every reduction in the same ascending order — with limbs
// held in registers across the whole error-free-transform chain instead
// of round-tripping through mdreal temporaries per primitive.  Complex
// scalars run the accessor-generic body on mdreal operators.
//
// The fused kernels never call a counting mdreal operator, so each
// wrapper reports its exact bulk tally via md::detail::count_bulk — the
// identical counts the generic body measures — keeping the measured ==
// analytic pins and the dry-run equivalence intact.
//
// The fused arithmetic is the fixed-sequence family of
// md/simd/kernels_impl.hpp: plain IEEE at N = 1 (the bits of mdreal<1>),
// the 20-flop accurate double-double add and fma-based mul at N = 2, and
// renormalized expansions at N >= 3 — within 4 * 2^(1-53N) of the
// exact result, but not bit-equal to mdreal's adaptive distillation.
// All pipeline oracles are backward-error bounds, not cross-arithmetic
// bit pins.  Bit-identity IS guaranteed — and pinned by tests — across
// ISA tables, vector widths and task partitions, because lanes run
// across output columns only and every lane op is elementwise IEEE.
#pragma once

#include <cstdint>

#include "blas/gemm.hpp"
#include "blas/scalar.hpp"
#include "blas/staged_view.hpp"
#include "md/op_counts.hpp"
#include "md/simd/dispatch.hpp"

namespace mdlsq::blas::fused {

namespace detail {
template <class T>
const md::simd::LimbKernels& kernels() noexcept {
  constexpr int N = scalar_traits<T>::limbs;
  static_assert(md::simd::fused_limbs(N),
                "no fused kernels are compiled for this limb count "
                "(md::simd::kFusedLimbs)");
  return md::simd::active().limbs(N);
}
}  // namespace detail

// w(0, c) = beta * sum_i conj(v(i, 0)) * a(i, c) for c in [c0, c1): the
// dot reduced in ascending row order, then one scale by beta.  Tally:
// rows adds + rows muls per dot, one mul for the scale.
template <class T>
void col_dots(const StagedView<T>& a, const StagedView<T>& v,
              const real_of_t<T>& beta, const StagedView<T>& w, int c0,
              int c1) {
  if (c0 >= c1) return;
  const int rows = a.rows();
  if constexpr (scalar_traits<T>::is_complex) {
    for (int c = c0; c < c1; ++c) {
      T s{};
      for (int i = 0; i < rows; ++i)
        s += conj_of(v.get(i, 0)) * a.get(i, c);
      w.set(0, c, s * beta);
    }
  } else {
    constexpr int N = scalar_traits<T>::limbs;
    double b[N];
    for (int s = 0; s < N; ++s) b[s] = beta.limb(s);
    detail::kernels<T>().col_dots(a.limb_planes(), rows, c0, c1,
                                  v.limb_planes(), b, w.limb_planes());
    const std::int64_t cols = c1 - c0;
    md::detail::count_bulk({.add = std::int64_t(rows) * cols,
                            .mul = std::int64_t(rows) * cols + cols});
  }
}

// a(i, c) -= v(i, 0) * w(0, c) for c in [c0, c1) — one fms (mul + sub)
// per element, ascending row order: the Householder panel apply.
template <class T>
void rank1_update(const StagedView<T>& a, const StagedView<T>& v,
                  const StagedView<T>& w, int c0, int c1) {
  if (c0 >= c1) return;
  const int rows = a.rows();
  if constexpr (scalar_traits<T>::is_complex) {
    for (int c = c0; c < c1; ++c)
      for (int i = 0; i < rows; ++i)
        a.set(i, c, a.get(i, c) - v.get(i, 0) * w.get(0, c));
  } else {
    detail::kernels<T>().rank1(a.limb_planes(), rows, c0, c1,
                               v.limb_planes(), w.limb_planes());
    const std::int64_t n = std::int64_t(rows) * (c1 - c0);
    md::detail::count_bulk({.sub = n, .mul = n});
  }
}

// c(i, j) = sum_t a(i, t) * conj(b(j, t)) over [i0,i1) x [j0,j1), t in
// [t0, t1) ascending — one fma (mul + add) per (i, j, t).
template <class T>
void gemm_nt(const StagedView<T>& a, const StagedView<T>& b,
             const StagedView<T>& c, int i0, int i1, int j0, int j1, int t0,
             int t1) {
  if (i0 >= i1 || j0 >= j1) return;
  if constexpr (scalar_traits<T>::is_complex) {
    gemm_block<T>(
        i0, i1, j0, j1, t0, t1, [&](int i, int t) { return a.get(i, t); },
        [&](int t, int j) { return conj_of(b.get(j, t)); },
        [&](int i, int j, const T& s) { c.set(i, j, s); });
  } else {
    detail::kernels<T>().gemm_nt(a.limb_planes(), b.limb_planes(),
                                 c.limb_planes(), i0, i1, j0, j1, t0, t1);
    const std::int64_t n =
        std::int64_t(i1 - i0) * (j1 - j0) * (t1 > t0 ? t1 - t0 : 0);
    md::detail::count_bulk({.add = n, .mul = n});
  }
}

// c(i, j) = sum_t a(i, t) * b(t, j) over [i0,i1) x [j0,j1), t in
// [t0, t1) ascending — one fma (mul + add) per (i, j, t).
template <class T>
void gemm_nn(const StagedView<T>& a, const StagedView<T>& b,
             const StagedView<T>& c, int i0, int i1, int j0, int j1, int t0,
             int t1) {
  if (i0 >= i1 || j0 >= j1) return;
  if constexpr (scalar_traits<T>::is_complex) {
    gemm_block<T>(
        i0, i1, j0, j1, t0, t1, [&](int i, int t) { return a.get(i, t); },
        [&](int t, int j) { return b.get(t, j); },
        [&](int i, int j, const T& s) { c.set(i, j, s); });
  } else {
    detail::kernels<T>().gemm_nn(a.limb_planes(), b.limb_planes(),
                                 c.limb_planes(), i0, i1, j0, j1, t0, t1);
    const std::int64_t n =
        std::int64_t(i1 - i0) * (j1 - j0) * (t1 > t0 ? t1 - t0 : 0);
    md::detail::count_bulk({.add = n, .mul = n});
  }
}

// c(i, j) += s(i, j) over [i0,i1) x [j0,j1) — one add per element.
template <class T>
void ewise_add(const StagedView<T>& c, const StagedView<T>& s, int i0,
               int i1, int j0, int j1) {
  if (i0 >= i1 || j0 >= j1) return;
  if constexpr (scalar_traits<T>::is_complex) {
    for (int i = i0; i < i1; ++i)
      for (int j = j0; j < j1; ++j) c.set(i, j, c.get(i, j) + s.get(i, j));
  } else {
    detail::kernels<T>().ewise_add(c.limb_planes(), s.limb_planes(), i0, i1,
                                   j0, j1);
    md::detail::count_bulk({.add = std::int64_t(i1 - i0) * (j1 - j0)});
  }
}

}  // namespace mdlsq::blas::fused
