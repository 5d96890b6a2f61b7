// Width-generic bodies of the dispatched kernels, instantiated once per
// backend and limb count by the per-ISA translation units
// (kernels_<isa>.cpp).
//
// Bit-identity across ISAs (DESIGN.md §9) rests on two rules this file
// enforces structurally:
//
//  1. Vector lanes run across OUTPUT elements only (the column index of
//     the panel/update kernels), never across a reduction index — every
//     output element's dot product is reduced start-to-end in ascending
//     t order inside one lane, exactly like the accessor-generic
//     kernels of blas::gemm_block.
//  2. Every operation is elementwise IEEE (vec.hpp), so an element
//     computed in a vector lane, in a tail, or by the scalar fallback
//     table sees the identical operation sequence and produces identical
//     bits — regardless of vector width, task partition or ISA.  The
//     columns left over by a backend's width recurse into the same
//     template on the next narrower backend (V::tail: AVX-512 -> AVX2
//     -> scalar), so there is one definition of the sequence per kernel.
//
// The arithmetic is the paper's Table 1 family, one fixed sequence per
// limb count N — no data-dependent control flow, which is what makes it
// vectorizable bit-identically, unlike mdreal's adaptive expansion
// distillation:
//
//  * N = 1: plain IEEE add and mul (what mdreal<1> computes).
//  * N = 2: the branch-free "accurate" double-double add (two two_sums,
//    two folds, two quick_two_sums — the 8 add + 12 sub d2 row) and the
//    fma-based double-double mul (Dekker/QD style).
//  * N >= 3: renormalized expansions as in CAMPARY (Joldes, Muller,
//    Popescu & Tucker) and QD (Hida, Li & Bailey).  The add is
//    Shewchuk's EXPANSION-SUM — exact, its 2N components nonoverlapping
//    — rounded to N limbs; the mul is CAMPARY's truncated product: exact
//    two_prods by diagonal, each diagonal summed with its predecessors'
//    carried errors by a VecSum pass, the diagonal past the last kept
//    limb in plain arithmetic, then one more VecSum pass and the
//    rounding.  The rounding (round_terms) skips zero terms with the
//    exact per-lane compare and select of vec.hpp, never with a branch.
//    Both stay within 4 * 2^(1-53N) of the exact result, relative to it
//    (tests/test_simd_planes.cpp; the worst case measured there is
//    0.45 * 2^(1-53N)).
#pragma once

#include <cmath>
#include <cstddef>
#include <iterator>
#include <utility>

#include "md/simd/dispatch.hpp"
#include "md/simd/vec.hpp"

// The N >= 3 sequences unroll completely: once every trip count and
// index is a compile-time constant, the carried errors and the rounding's
// terms live in registers instead of stack arrays (about 1.7x faster
// kernels at d4 and d8).  Unrolling never reorders an IEEE operation.
#define MDLSQ_UNROLL _Pragma("GCC unroll 128")

namespace mdlsq::md::simd {

// ---------------------------------------------------------------------------
// N-limb register algebra over one backend V.  A value is N registers,
// limb 0 most significant (mdreal's order); lane k of every register
// belongs to the same number.
// ---------------------------------------------------------------------------
template <class V, int N>
struct MDBase {
  using reg = typename V::reg;
  struct Num {
    reg l[N];
  };

  static Num zero() noexcept {
    Num r;
    for (int s = 0; s < N; ++s) r.l[s] = V::set1(0.0);
    return r;
  }
  // Limb s of W consecutive elements at p + s * plane.
  static Num load(const double* p, std::size_t plane) noexcept {
    Num r;
    for (int s = 0; s < N; ++s) r.l[s] = V::load(p + s * plane);
    return r;
  }
  // Limb s of W elements `stride` doubles apart.
  static Num load_stride(const double* p, std::size_t plane,
                         std::size_t stride) noexcept {
    Num r;
    for (int s = 0; s < N; ++s)
      r.l[s] = V::load_stride(p + s * plane, stride);
    return r;
  }
  // One element broadcast to every lane.
  static Num set1(const double* p, std::size_t plane) noexcept {
    Num r;
    for (int s = 0; s < N; ++s) r.l[s] = V::set1(p[s * plane]);
    return r;
  }
  static void store(double* p, std::size_t plane, const Num& x) noexcept {
    for (int s = 0; s < N; ++s) V::store(p + s * plane, x.l[s]);
  }

  static void two_sum(reg a, reg b, reg& s, reg& e) noexcept {
    s = V::add(a, b);
    const reg bb = V::sub(s, a);
    e = V::add(V::sub(a, V::sub(s, bb)), V::sub(b, bb));
  }
  static void quick_two_sum(reg a, reg b, reg& s, reg& e) noexcept {
    s = V::add(a, b);
    e = V::sub(b, V::sub(s, a));
  }
  static void two_prod(reg a, reg b, reg& p, reg& e) noexcept {
    p = V::mul(a, b);
    e = V::fma(a, b, V::neg(p));
  }
};

// N >= 3: renormalized expansions (see the file comment).
template <class V, int N>
struct MD : MDBase<V, N> {
  static_assert(N >= 3, "N = 1 and N = 2 have their own sequences below");
  using B = MDBase<V, N>;
  using reg = typename B::reg;
  using Num = typename B::Num;

  // Bottom-up VecSum pass: t[0] becomes the accumulated total and
  // t[1..K) the exact residuals; the sum of t is unchanged.
  template <int K>
  static void vec_sum(reg (&t)[K]) noexcept {
    reg s = t[K - 1];
    MDLSQ_UNROLL
    for (int i = K - 2; i >= 0; --i) {
      reg e;
      B::two_sum(t[i], s, s, e);
      t[i + 1] = e;
    }
    t[0] = s;
  }

  // Rounds K terms, most significant first, to N renormalized limbs: a
  // top-down two_sum sweep emits the high part wherever the low part is
  // nonzero and otherwise carries the sum on, leaving a zero hole; the
  // compaction then pushes the nonzero emissions to the front in order,
  // so the first N survive and the rest is the truncated tail.
  template <int K>
  static Num round_terms(const reg (&t)[K]) noexcept {
    const reg zero = V::set1(0.0);
    reg o[K];
    reg q = t[0];
    MDLSQ_UNROLL
    for (int i = 1; i < K; ++i) {
      reg hi, lo;
      B::two_sum(q, t[i], hi, lo);
      const auto m = V::nonzero(lo);
      o[i - 1] = V::select(m, hi, zero);
      q = V::select(m, lo, hi);
    }
    o[K - 1] = q;
    Num r = B::zero();
    MDLSQ_UNROLL
    for (int i = K - 1; i >= 0; --i) {
      const auto m = V::nonzero(o[i]);
      MDLSQ_UNROLL
      for (int j = N - 1; j > 0; --j)
        r.l[j] = V::select(m, r.l[j - 1], r.l[j]);
      r.l[0] = V::select(m, o[i], r.l[0]);
    }
    return r;
  }

  // Shewchuk's EXPANSION-SUM on the limbs taken least significant first:
  // each limb of b grows a sliding N-wide window of the running
  // expansion (GROW-EXPANSION without zero elimination), so the 2N
  // components are exact, nonoverlapping and increasing; then rounded.
  static Num add(const Num& a, const Num& b) noexcept {
    reg h[2 * N];
    MDLSQ_UNROLL
    for (int i = 0; i < N; ++i) h[i] = a.l[N - 1 - i];
    MDLSQ_UNROLL
    for (int i = 0; i < N; ++i) {
      reg q = b.l[N - 1 - i];
      MDLSQ_UNROLL
      for (int j = i; j < i + N; ++j) {
        reg s, e;
        B::two_sum(q, h[j], s, e);
        h[j] = e;
        q = s;
      }
      h[i + N] = q;
    }
    reg t[2 * N];
    MDLSQ_UNROLL
    for (int i = 0; i < 2 * N; ++i) t[i] = h[2 * N - 1 - i];
    return round_terms(t);
  }

  static Num sub(const Num& a, const Num& b) noexcept {
    Num nb;
    MDLSQ_UNROLL
    for (int s = 0; s < N; ++s) nb.l[s] = V::neg(b.l[s]);
    return add(a, nb);
  }

  // CAMPARY's truncated product: diagonal n's exact two_prods and every
  // error carried so far go through one VecSum pass, whose total is
  // pi[n] and whose residuals carry on with the diagonal's own product
  // errors; diagonal N (plain products plus all carried errors) is
  // summed in plain arithmetic; pi[0..N] is then summed and rounded.
  static Num mul(const Num& x, const Num& y) noexcept {
    reg pi[N + 1];
    reg e[N * N];  // carried errors: (n + 1)^2 after diagonal n
    B::two_prod(x.l[0], y.l[0], pi[0], e[0]);
    diagonal<1>(x, y, pi, e);
    reg z = V::mul(x.l[1], y.l[N - 1]);
    MDLSQ_UNROLL
    for (int i = 2; i < N; ++i) z = V::add(z, V::mul(x.l[i], y.l[N - i]));
    MDLSQ_UNROLL
    for (int i = 0; i < N * N; ++i) z = V::add(z, e[i]);
    pi[N] = z;
    vec_sum(pi);
    return round_terms(pi);
  }

  // Diagonal n of mul, then the next: on entry e holds the n^2 carried
  // errors, on exit the (n + 1)^2 of the VecSum residuals followed by
  // this diagonal's product errors.  Every trip count is a constant;
  // forced inline so the carried errors stay in registers across the
  // recursion.
  template <int n>
  [[gnu::always_inline]] static void diagonal(const Num& x, const Num& y,
                                              reg* pi, reg* e) noexcept {
    constexpr int k = n + 1 + n * n;
    reg t[k], eh[n + 1];
    MDLSQ_UNROLL
    for (int i = 0; i <= n; ++i)
      B::two_prod(x.l[i], y.l[n - i], t[i], eh[i]);
    MDLSQ_UNROLL
    for (int i = 0; i < n * n; ++i) t[n + 1 + i] = e[i];
    vec_sum(t);
    pi[n] = t[0];
    MDLSQ_UNROLL
    for (int i = 1; i < k; ++i) e[i - 1] = t[i];
    MDLSQ_UNROLL
    for (int i = 0; i <= n; ++i) e[k - 1 + i] = eh[i];
    if constexpr (n + 1 < N) diagonal<n + 1>(x, y, pi, e);
  }
};

// N = 1: plain IEEE arithmetic.
template <class V>
struct MD<V, 1> : MDBase<V, 1> {
  using Num = typename MDBase<V, 1>::Num;
  static Num add(const Num& a, const Num& b) noexcept {
    return {{V::add(a.l[0], b.l[0])}};
  }
  static Num sub(const Num& a, const Num& b) noexcept {
    return {{V::sub(a.l[0], b.l[0])}};
  }
  static Num mul(const Num& a, const Num& b) noexcept {
    return {{V::mul(a.l[0], b.l[0])}};
  }
};

// N = 2: double double, Table 1's d2 sequences.
template <class V>
struct MD<V, 2> : MDBase<V, 2> {
  using B = MDBase<V, 2>;
  using reg = typename B::reg;
  using Num = typename B::Num;

  // The accurate branch-free double-double addition (20 flops — Table
  // 1's d2 add row).
  static Num add(const Num& a, const Num& b) noexcept {
    reg s1, s2, t1, t2;
    B::two_sum(a.l[0], b.l[0], s1, s2);
    B::two_sum(a.l[1], b.l[1], t1, t2);
    s2 = V::add(s2, t1);
    B::quick_two_sum(s1, s2, s1, s2);
    s2 = V::add(s2, t2);
    Num r;
    B::quick_two_sum(s1, s2, r.l[0], r.l[1]);
    return r;
  }
  // The fma-based double-double product.
  static Num mul(const Num& a, const Num& b) noexcept {
    const reg p1 = V::mul(a.l[0], b.l[0]);
    reg p2 = V::fma(a.l[0], b.l[0], V::neg(p1));  // exact error of p1
    p2 = V::add(p2, V::mul(a.l[0], b.l[1]));
    p2 = V::add(p2, V::mul(a.l[1], b.l[0]));
    Num r;
    B::quick_two_sum(p1, p2, r.l[0], r.l[1]);
    return r;
  }
  // Add of the exact negation.
  static Num sub(const Num& a, const Num& b) noexcept {
    return add(a, {{V::neg(b.l[0]), V::neg(b.l[1])}});
  }
};

// ---------------------------------------------------------------------------
// Fused N-limb panel/update kernels.  Lanes run across the output column
// index; reductions stay inside a lane in ascending t order.
// ---------------------------------------------------------------------------
template <class V, int N>
void col_dots_kernel(CPlanes a, int rows, int c0, int c1, CPlanes v,
                     const double* beta, Planes w) {
  using M = MD<V, N>;
  constexpr int W = V::width;
  const auto b = M::set1(beta, 1);
  int c = c0;
  for (; c + W <= c1; c += W) {
    auto s = M::zero();
    for (int t = 0; t < rows; ++t)
      s = M::add(s, M::mul(M::set1(v.at(0, t, 0), v.plane),
                           M::load(a.at(0, t, c), a.plane)));
    M::store(w.at(0, 0, c), w.plane, M::mul(s, b));
  }
  if constexpr (W > 1) {
    if (c < c1)
      col_dots_kernel<typename V::tail, N>(a, rows, c, c1, v, beta, w);
  }
}

template <class V, int N>
void rank1_kernel(Planes a, int rows, int c0, int c1, CPlanes v, CPlanes w) {
  using M = MD<V, N>;
  constexpr int W = V::width;
  int c = c0;
  for (; c + W <= c1; c += W) {
    const auto wc = M::load(w.at(0, 0, c), w.plane);
    for (int t = 0; t < rows; ++t) {
      double* p = a.at(0, t, c);
      M::store(p, a.plane,
               M::sub(M::load(p, a.plane),
                      M::mul(M::set1(v.at(0, t, 0), v.plane), wc)));
    }
  }
  if constexpr (W > 1) {
    if (c < c1) rank1_kernel<typename V::tail, N>(a, rows, c, c1, v, w);
  }
}

template <class V, int N>
void gemm_nt_kernel(CPlanes a, CPlanes b, Planes c, int i0, int i1, int j0,
                    int j1, int t0, int t1) {
  using M = MD<V, N>;
  constexpr int W = V::width;
  const int jv = j0 + ((j1 - j0) / W) * W;  // vectorized column prefix
  for (int i = i0; i < i1; ++i)
    for (int j = j0; j < jv; j += W) {
      auto s = M::zero();
      for (int t = t0; t < t1; ++t)
        s = M::add(s, M::mul(M::set1(a.at(0, i, t), a.plane),
                             M::load_stride(b.at(0, j, t), b.plane, b.ld)));
      M::store(c.at(0, i, j), c.plane, s);
    }
  if constexpr (W > 1) {
    if (jv < j1)
      gemm_nt_kernel<typename V::tail, N>(a, b, c, i0, i1, jv, j1, t0,
                                          t1);
  }
}

template <class V, int N>
void gemm_nn_kernel(CPlanes a, CPlanes b, Planes c, int i0, int i1, int j0,
                    int j1, int t0, int t1) {
  using M = MD<V, N>;
  constexpr int W = V::width;
  const int jv = j0 + ((j1 - j0) / W) * W;
  for (int i = i0; i < i1; ++i)
    for (int j = j0; j < jv; j += W) {
      auto s = M::zero();
      for (int t = t0; t < t1; ++t)
        s = M::add(s, M::mul(M::set1(a.at(0, i, t), a.plane),
                             M::load(b.at(0, t, j), b.plane)));
      M::store(c.at(0, i, j), c.plane, s);
    }
  if constexpr (W > 1) {
    if (jv < j1)
      gemm_nn_kernel<typename V::tail, N>(a, b, c, i0, i1, jv, j1, t0,
                                          t1);
  }
}

template <class V, int N>
void ewise_add_kernel(Planes c, CPlanes s, int i0, int i1, int j0, int j1) {
  using M = MD<V, N>;
  constexpr int W = V::width;
  const int jv = j0 + ((j1 - j0) / W) * W;
  for (int i = i0; i < i1; ++i)
    for (int j = j0; j < jv; j += W) {
      double* p = c.at(0, i, j);
      M::store(p, c.plane,
               M::add(M::load(p, c.plane), M::load(s.at(0, i, j), s.plane)));
    }
  if constexpr (W > 1) {
    if (jv < j1)
      ewise_add_kernel<typename V::tail, N>(c, s, i0, i1, jv, j1);
  }
}

// A chain has no lanes to fill: the scalar sequence, instantiated per
// backend so each table's copy is compiled in its own translation unit.
template <class V, int N>
void fms_chain_kernel(double* s, CPlanes a, CPlanes b, int n) {
  using M = MD<VScalar, N>;
  auto acc = M::load(s, 1);
  for (int t = 0; t < n; ++t)
    acc = M::sub(acc, M::mul(M::load(a.at(0, 0, t), a.plane),
                             M::load(b.at(0, 0, t), b.plane)));
  M::store(s, 1, acc);
}

// One fully-bound table for backend V: a kernel set per fused count.
template <class V, int N>
LimbKernels make_limb_kernels() noexcept {
  return {&col_dots_kernel<V, N>,  &rank1_kernel<V, N>,
          &gemm_nt_kernel<V, N>,   &gemm_nn_kernel<V, N>,
          &ewise_add_kernel<V, N>, &fms_chain_kernel<V, N>};
}

template <class V, std::size_t... I>
KernelTable make_table(Isa isa, std::index_sequence<I...>) noexcept {
  KernelTable t;
  t.isa = isa;
  ((t.by_limbs[kFusedLimbs[I]] = make_limb_kernels<V, kFusedLimbs[I]>()),
   ...);
  return t;
}

template <class V>
KernelTable make_table(Isa isa) noexcept {
  return make_table<V>(
      isa, std::make_index_sequence<std::size(kFusedLimbs)>{});
}

}  // namespace mdlsq::md::simd

#undef MDLSQ_UNROLL
