// Width-generic bodies of the dispatched kernels, instantiated once per
// backend by the per-ISA translation units (kernels_<isa>.cpp).
//
// Bit-identity across ISAs (DESIGN.md §9) rests on two rules this file
// enforces structurally:
//
//  1. Vector lanes run across OUTPUT elements only (the column index of
//     the panel/update kernels), never across a reduction index — every
//     output element's dot product is reduced start-to-end in ascending
//     t order inside one lane, exactly like the accessor-generic
//     kernels of blas/panel.hpp and blas::gemm_block.
//  2. Every operation is elementwise IEEE (vec.hpp), so an element
//     computed in a vector lane, in a scalar tail, or by the scalar
//     fallback table sees the identical operation sequence and produces
//     identical bits — regardless of vector width, task partition or
//     ISA.  Tails recurse into the VScalar instantiation of the same
//     template, so there is one definition of the sequence per kernel.
//
// The fused double-double kernels implement the paper's Table 1 kernels
// directly: the branch-free "accurate" double-double add (two two_sums,
// two folds, two quick_two_sums — the 8 add + 12 sub sequence of the
// d2 row) and the fma-based double-double mul (Dekker/QD style).  They
// are fixed-sequence by construction — no zero-elimination, no
// data-dependent control flow — which is what makes them vectorizable
// bit-identically, unlike mdreal's adaptive expansion distillation.
#pragma once

#include <cmath>
#include <cstddef>

#include "md/simd/dispatch.hpp"
#include "md/simd/vec.hpp"

namespace mdlsq::md::simd {

// ---------------------------------------------------------------------------
// Double-double register algebra over one backend V.
// ---------------------------------------------------------------------------
template <class V>
struct DD {
  using reg = typename V::reg;

  static void two_sum(reg a, reg b, reg& s, reg& e) noexcept {
    s = V::add(a, b);
    const reg bb = V::sub(s, a);
    e = V::add(V::sub(a, V::sub(s, bb)), V::sub(b, bb));
  }
  static void quick_two_sum(reg a, reg b, reg& s, reg& e) noexcept {
    s = V::add(a, b);
    e = V::sub(b, V::sub(s, a));
  }
  // (hi, lo) = (ahi, alo) + (bhi, blo): the accurate branch-free
  // double-double addition (20 flops — Table 1's d2 add row).
  static void add(reg ahi, reg alo, reg bhi, reg blo, reg& hi,
                  reg& lo) noexcept {
    reg s1, s2, t1, t2;
    two_sum(ahi, bhi, s1, s2);
    two_sum(alo, blo, t1, t2);
    s2 = V::add(s2, t1);
    quick_two_sum(s1, s2, s1, s2);
    s2 = V::add(s2, t2);
    quick_two_sum(s1, s2, hi, lo);
  }
  // (hi, lo) = (ahi, alo) * (bhi, blo): fma-based double-double product.
  static void mul(reg ahi, reg alo, reg bhi, reg blo, reg& hi,
                  reg& lo) noexcept {
    const reg p1 = V::mul(ahi, bhi);
    reg p2 = V::fma(ahi, bhi, V::neg(p1));  // exact error of p1
    p2 = V::add(p2, V::mul(ahi, blo));
    p2 = V::add(p2, V::mul(alo, bhi));
    quick_two_sum(p1, p2, hi, lo);
  }
  // (hi, lo) = (ahi, alo) - (bhi, blo): add of the exact negation.
  static void sub(reg ahi, reg alo, reg bhi, reg blo, reg& hi,
                  reg& lo) noexcept {
    add(ahi, alo, V::neg(bhi), V::neg(blo), hi, lo);
  }
};

// ---------------------------------------------------------------------------
// Fused double-double panel/update kernels.  Lanes run across the output
// column index; reductions stay inside a lane in ascending t order.
// ---------------------------------------------------------------------------
template <class V>
void dd_col_dots_kernel(const double* ahi, const double* alo, std::size_t lda,
                        int rows, int c0, int c1, const double* vhi,
                        const double* vlo, double bhi, double blo, double* whi,
                        double* wlo) {
  constexpr int W = V::width;
  const auto bh = V::set1(bhi), bl = V::set1(blo);
  int c = c0;
  for (; c + W <= c1; c += W) {
    auto sh = V::set1(0.0), sl = V::set1(0.0);
    for (int t = 0; t < rows; ++t) {
      const auto xh = V::set1(vhi[t]), xl = V::set1(vlo[t]);
      const auto yh = V::load(ahi + std::size_t(t) * lda + c);
      const auto yl = V::load(alo + std::size_t(t) * lda + c);
      typename V::reg ph, pl;
      DD<V>::mul(xh, xl, yh, yl, ph, pl);
      DD<V>::add(sh, sl, ph, pl, sh, sl);
    }
    DD<V>::mul(sh, sl, bh, bl, sh, sl);
    V::store(whi + c, sh);
    V::store(wlo + c, sl);
  }
  if constexpr (W > 1) {
    if (c < c1)
      dd_col_dots_kernel<VScalar>(ahi, alo, lda, rows, c, c1, vhi, vlo, bhi,
                                  blo, whi, wlo);
  }
}

template <class V>
void dd_rank1_kernel(double* ahi, double* alo, std::size_t lda, int rows,
                     int c0, int c1, const double* vhi, const double* vlo,
                     const double* whi, const double* wlo) {
  constexpr int W = V::width;
  int c = c0;
  for (; c + W <= c1; c += W) {
    const auto wh = V::load(whi + c), wl = V::load(wlo + c);
    for (int t = 0; t < rows; ++t) {
      double* ph = ahi + std::size_t(t) * lda + c;
      double* pl = alo + std::size_t(t) * lda + c;
      typename V::reg mh, ml, rh, rl;
      DD<V>::mul(V::set1(vhi[t]), V::set1(vlo[t]), wh, wl, mh, ml);
      DD<V>::sub(V::load(ph), V::load(pl), mh, ml, rh, rl);
      V::store(ph, rh);
      V::store(pl, rl);
    }
  }
  if constexpr (W > 1) {
    if (c < c1)
      dd_rank1_kernel<VScalar>(ahi, alo, lda, rows, c, c1, vhi, vlo, whi,
                               wlo);
  }
}

template <class V>
void dd_gemm_nt_kernel(const double* ahi, const double* alo, std::size_t lda,
                       const double* bhi, const double* blo, std::size_t ldb,
                       double* chi, double* clo, std::size_t ldc, int i0,
                       int i1, int j0, int j1, int t0, int t1) {
  constexpr int W = V::width;
  const int jv = j0 + ((j1 - j0) / W) * W;  // vectorized column prefix
  for (int i = i0; i < i1; ++i) {
    const double* arh = ahi + std::size_t(i) * lda;
    const double* arl = alo + std::size_t(i) * lda;
    for (int j = j0; j < jv; j += W) {
      auto sh = V::set1(0.0), sl = V::set1(0.0);
      for (int t = t0; t < t1; ++t) {
        const auto xh = V::set1(arh[t]), xl = V::set1(arl[t]);
        const auto yh = V::load_stride(bhi + std::size_t(j) * ldb + t, ldb);
        const auto yl = V::load_stride(blo + std::size_t(j) * ldb + t, ldb);
        typename V::reg ph, pl;
        DD<V>::mul(xh, xl, yh, yl, ph, pl);
        DD<V>::add(sh, sl, ph, pl, sh, sl);
      }
      V::store(chi + std::size_t(i) * ldc + j, sh);
      V::store(clo + std::size_t(i) * ldc + j, sl);
    }
  }
  if constexpr (W > 1) {
    if (jv < j1)
      dd_gemm_nt_kernel<VScalar>(ahi, alo, lda, bhi, blo, ldb, chi, clo, ldc,
                                 i0, i1, jv, j1, t0, t1);
  }
}

template <class V>
void dd_gemm_nn_kernel(const double* ahi, const double* alo, std::size_t lda,
                       const double* bhi, const double* blo, std::size_t ldb,
                       double* chi, double* clo, std::size_t ldc, int i0,
                       int i1, int j0, int j1, int t0, int t1) {
  constexpr int W = V::width;
  const int jv = j0 + ((j1 - j0) / W) * W;
  for (int i = i0; i < i1; ++i) {
    const double* arh = ahi + std::size_t(i) * lda;
    const double* arl = alo + std::size_t(i) * lda;
    for (int j = j0; j < jv; j += W) {
      auto sh = V::set1(0.0), sl = V::set1(0.0);
      for (int t = t0; t < t1; ++t) {
        const auto xh = V::set1(arh[t]), xl = V::set1(arl[t]);
        const auto yh = V::load(bhi + std::size_t(t) * ldb + j);
        const auto yl = V::load(blo + std::size_t(t) * ldb + j);
        typename V::reg ph, pl;
        DD<V>::mul(xh, xl, yh, yl, ph, pl);
        DD<V>::add(sh, sl, ph, pl, sh, sl);
      }
      V::store(chi + std::size_t(i) * ldc + j, sh);
      V::store(clo + std::size_t(i) * ldc + j, sl);
    }
  }
  if constexpr (W > 1) {
    if (jv < j1)
      dd_gemm_nn_kernel<VScalar>(ahi, alo, lda, bhi, blo, ldb, chi, clo, ldc,
                                 i0, i1, jv, j1, t0, t1);
  }
}

template <class V>
void dd_ewise_add_kernel(double* chi, double* clo, std::size_t ldc,
                         const double* shi, const double* slo,
                         std::size_t lds, int i0, int i1, int j0, int j1) {
  constexpr int W = V::width;
  const int jv = j0 + ((j1 - j0) / W) * W;
  for (int i = i0; i < i1; ++i) {
    double* crh = chi + std::size_t(i) * ldc;
    double* crl = clo + std::size_t(i) * ldc;
    const double* srh = shi + std::size_t(i) * lds;
    const double* srl = slo + std::size_t(i) * lds;
    for (int j = j0; j < jv; j += W) {
      typename V::reg rh, rl;
      DD<V>::add(V::load(crh + j), V::load(crl + j), V::load(srh + j),
                 V::load(srl + j), rh, rl);
      V::store(crh + j, rh);
      V::store(crl + j, rl);
    }
  }
  if constexpr (W > 1) {
    if (jv < j1)
      dd_ewise_add_kernel<VScalar>(chi, clo, ldc, shi, slo, lds, i0, i1, jv,
                                   j1);
  }
}

// One fully-bound table for backend V.
template <class V>
KernelTable make_table(Isa isa) noexcept {
  KernelTable t;
  t.isa = isa;
  t.dd_col_dots = &dd_col_dots_kernel<V>;
  t.dd_rank1 = &dd_rank1_kernel<V>;
  t.dd_gemm_nt = &dd_gemm_nt_kernel<V>;
  t.dd_gemm_nn = &dd_gemm_nn_kernel<V>;
  t.dd_ewise_add = &dd_ewise_add_kernel<V>;
  return t;
}

}  // namespace mdlsq::md::simd
