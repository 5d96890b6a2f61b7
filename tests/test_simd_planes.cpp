// The dispatched SIMD layer (md/simd/, DESIGN.md §9): the fused N-limb
// kernel family.
//
// The dispatch contract is that ISA selection is purely a speed decision:
// every compiled table — scalar, AVX2, AVX-512, NEON — must produce
// bit-identical results.  For every limb count the tables carry
// (md::simd::kFusedLimbs) these tests
//   * sweep all six fused kernels of every supported table against the
//     scalar table on adversarial data (±0, short numbers, exponent gaps,
//     subnormal low limbs, Inf/NaN, exact and near cancellation) at
//     tail-exercising lengths, and pin their partition invariance;
//   * pin the sequences themselves: N = 1 is IEEE arithmetic, N = 2 is
//     the double-double add and mul the fused family started from (a
//     reference copy is kept below), N >= 3 stays within 4 * 2^(1-53N)
//     of the exact expansion result, relative to it, and renormalized;
//   * close the loop end-to-end: a blocked QR, a correction solve and a
//     block Toeplitz series solve forced onto each ISA and run at
//     parallelism 1 and 4 reproduce the forced-scalar sequential results
//     limb-for-limb, with measured == analytic per stage.
//
// Also here: the plane-kernel tally contract (empty — plane kernels
// execute no multiple-double operations), the planes::copy overlap
// regression (memmove semantics) and the scalar EFT two_prod.
//
// This file instantiates the kernel templates and the reference
// sequences in its own translation unit, so CMake compiles it with
// -ffp-contract=off like the kernel TUs.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "blas/panel.hpp"
#include "core/block_toeplitz.hpp"
#include "core/blocked_qr.hpp"
#include "device/staged.hpp"
#include "md/eft.hpp"
#include "md/expansion.hpp"
#include "md/mdreal.hpp"
#include "md/planes.hpp"
#include "md/simd/dispatch.hpp"
#include "md/simd/kernels_impl.hpp"
#include "support/test_support.hpp"
#include "util/thread_pool.hpp"

namespace mdlsq {
namespace {

using test_support::make_dev;
namespace simd = md::simd;

std::uint64_t bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

// Bitwise equality; any two NaNs count as equal (which operand's payload
// an IEEE op propagates is not part of the contract).
bool same(double a, double b) {
  return bits(a) == bits(b) || (std::isnan(a) && std::isnan(b));
}

void expect_same(std::span<const double> a, std::span<const double> b,
                 const char* what, simd::Isa isa) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_TRUE(same(a[i], b[i]))
        << what << " diverges from scalar on " << simd::name_of(isa)
        << " at index " << i << ": " << a[i] << " vs " << b[i];
}

TEST(SimdDispatch, SupportedTiersEndWithScalarAndActiveIsBest) {
  const auto isas = simd::supported_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.back(), simd::Isa::scalar);
  ASSERT_NE(simd::table_for(simd::Isa::scalar), nullptr);
  // No force live: the active table is the best supported tier (unless
  // the MDLSQ_SIMD triage cap is set in the environment).
  simd::clear_forced();
  if (std::getenv("MDLSQ_SIMD") == nullptr) {
    EXPECT_EQ(simd::active_isa(), isas.front());
  }
  for (simd::Isa isa : isas) {
    const auto* t = simd::table_for(isa);
    ASSERT_NE(t, nullptr) << simd::name_of(isa);
    EXPECT_EQ(t->isa, isa);
  }
}

TEST(SimdDispatch, ForceIsaRoundTripAndUnsupportedRejected) {
  const auto isas = simd::supported_isas();
  for (simd::Isa isa : isas) {
    ASSERT_TRUE(simd::force_isa(isa));
    EXPECT_EQ(simd::active_isa(), isa);
  }
  simd::clear_forced();
  // Every tier NOT in the supported list must be refused without
  // changing the active table.
  for (simd::Isa isa : {simd::Isa::scalar, simd::Isa::neon, simd::Isa::avx2,
                        simd::Isa::avx512}) {
    bool supported = false;
    for (simd::Isa s : isas) supported |= (s == isa);
    if (!supported) {
      EXPECT_FALSE(simd::force_isa(isa)) << simd::name_of(isa);
      EXPECT_EQ(simd::table_for(isa), nullptr);
    }
  }
  simd::clear_forced();
}

// Every table carries a complete kernel set for exactly the fused counts.
TEST(SimdDispatch, EveryTableHasAKernelSetPerFusedLimbCount) {
  for (simd::Isa isa : simd::supported_isas()) {
    const auto* t = simd::table_for(isa);
    for (int n = 0; n <= simd::kMaxFusedLimbs; ++n) {
      const auto& k = t->limbs(n);
      const bool fused = simd::fused_limbs(n);
      EXPECT_EQ(k.col_dots != nullptr, fused) << n;
      EXPECT_EQ(k.rank1 != nullptr, fused) << n;
      EXPECT_EQ(k.gemm_nt != nullptr, fused) << n;
      EXPECT_EQ(k.gemm_nn != nullptr, fused) << n;
      EXPECT_EQ(k.ewise_add != nullptr, fused) << n;
      EXPECT_EQ(k.fms_chain != nullptr, fused) << n;
    }
  }
}

// Satellite regression: planes::copy must honor overlapping spans in both
// directions (it is the substrate of staged in-place structural moves).
TEST(SimdPlanes, CopyHandlesOverlappingSpans) {
  const std::size_t n = 64, span = 48, shift = 5;
  std::vector<double> fwd(n), bwd(n), ref(n);
  for (std::size_t i = 0; i < n; ++i) fwd[i] = bwd[i] = ref[i] = double(i);

  md::planes::copy(std::span<const double>(fwd.data(), span),
                   std::span<double>(fwd.data() + shift, span));
  md::planes::copy(std::span<const double>(bwd.data() + shift, span),
                   std::span<double>(bwd.data(), span));
  for (std::size_t i = 0; i < span; ++i) {
    ASSERT_EQ(fwd[i + shift], ref[i]) << "forward overlap at " << i;
    ASSERT_EQ(bwd[i], ref[i + shift]) << "backward overlap at " << i;
  }
}

// Plane kernels execute below the Table 1 cost model: their declared
// tally is empty and running them must leave a live tally untouched.
TEST(SimdPlanes, PlaneKernelsCountNoMultipleDoubleOps) {
  EXPECT_EQ(md::planes::tally(), md::OpTally{});
  const std::size_t n = 33;
  std::vector<double> a(n), s(n);
  for (std::size_t i = 0; i < n; ++i) a[i] = std::ldexp(1.0 + i, -7);
  md::OpTally t;
  {
    md::ScopedTally scope(t);
    md::planes::fill(std::span<double>(s), 0.5);
    md::planes::copy(a, std::span<double>(s));
  }
  EXPECT_EQ(t, md::OpTally{});
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(bits(s[i]), bits(a[i]));
}

// --- data --------------------------------------------------------------------

// One renormalized N-limb number, most significant limb first.
//   kind 0: full random limbs, 53 bits apart;
//   kind 1: a short number (zero tail);
//   kind 2: random exponent gaps between limbs;
//   kind 3: tiny — the low limbs subnormal or flushed to zero;
//   kind 4: +0 or -0.
// Exponents stay inside the range where the error-free transforms are
// exact, except kind 3 which probes the subnormal edge.
template <int N, class Urbg>
md::mdreal<N> random_number(Urbg& gen, int kind) {
  std::uniform_real_distribution<double> mant(-1.0, 1.0);
  std::uniform_int_distribution<int> gap(0, 320 / N), len(1, N);
  double terms[N] = {};
  int e = kind == 3 ? -1000
                    : 13 * (N > 2 ? N : 2) - 20 +
                          std::uniform_int_distribution<int>(0, 40)(gen);
  const int live = kind == 1 ? len(gen) : N;
  for (int i = 0; i < N; ++i) {
    terms[i] = i < live ? std::ldexp(mant(gen), e) : 0.0;
    e -= 53 + (kind == 2 ? gap(gen) : 0);
  }
  if (kind == 4) {
    md::mdreal<N> z;
    z.set_limb(0, mant(gen) < 0 ? -0.0 : 0.0);
    return z;
  }
  return md::mdreal<N>::renormalized(terms, N);
}

// `n` elements of limb planes (limb s of element k at p[s * n + k]): the
// five kinds above plus, when asked, Inf and NaN elements.
template <int N>
std::vector<double> adversarial_planes(std::size_t n, std::uint64_t seed,
                                       bool nonfinite) {
  std::mt19937_64 gen(seed);
  std::uniform_int_distribution<int> kind(0, nonfinite ? 6 : 4);
  std::vector<double> p(n * N);
  for (std::size_t k = 0; k < n; ++k) {
    const int c = kind(gen);
    md::mdreal<N> x;
    if (c == 5)
      x.set_limb(0, k % 2 ? std::numeric_limits<double>::infinity()
                          : -std::numeric_limits<double>::infinity());
    else if (c == 6)
      x.set_limb(0, std::numeric_limits<double>::quiet_NaN());
    else
      x = random_number<N>(gen, c);
    for (int s = 0; s < N; ++s) p[s * n + k] = x.limb(s);
  }
  return p;
}

// Overwrites element k of `s` (planes of n elements) with -c(k), exactly
// or with one limb nudged: exact and near cancellation for the add.
template <int N>
void cancel_against(const std::vector<double>& c, std::vector<double>& s,
                    std::size_t n, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  std::uniform_int_distribution<int> limb(0, N - 1), shift(1, 60);
  for (std::size_t k = 0; k < n; k += 3) {
    double t[N];
    for (int l = 0; l < N; ++l) t[l] = -c[l * n + k];
    if (k % 2) {
      const int l = limb(gen);
      t[l] += std::ldexp(t[0] == 0.0 ? 1.0 : t[0], -53 * l - shift(gen));
    }
    const auto x = md::mdreal<N>::renormalized(t, N);
    for (int l = 0; l < N; ++l) s[l * n + k] = x.limb(l);
  }
}

simd::Planes planes_of(std::vector<double>& p, std::size_t n,
                       std::size_t ld) {
  return {p.data(), n, ld};
}

// All six kernels of one table on one data set, outputs concatenated.
template <int N>
std::vector<double> run_kernels(const simd::LimbKernels& k, bool nonfinite,
                                int c0, int cut, int c1) {
  const int rows = 5, cols = 13, K = 6;
  const std::size_t lda = 16;  // padded leading dimension
  const std::size_t na = lda * rows;
  auto a = adversarial_planes<N>(na, 101 + N, nonfinite);
  auto v = adversarial_planes<N>(rows, 103 + N, nonfinite);
  auto beta = adversarial_planes<N>(1, 105 + N, false);
  auto wt = adversarial_planes<N>(cols, 107 + N, nonfinite);
  auto g = adversarial_planes<N>(lda * cols, 109 + N, nonfinite);
  auto c = adversarial_planes<N>(lda * rows, 111 + N, nonfinite);
  auto s = adversarial_planes<N>(lda * rows, 113 + N, nonfinite);
  cancel_against<N>(c, s, lda * rows, 115 + N);

  std::vector<double> w(std::size_t(cols) * N), r1 = a, nt(na * N),
      nn(na * N), ew = c;
  // Each call covers [c0, cut) then [cut, c1): the split must not move a
  // bit against the single call (cut == c0).
  auto both = [&](auto&& f) {
    f(c0, cut);
    f(cut, c1);
  };
  both([&](int x0, int x1) {
    k.col_dots(planes_of(a, na, lda), rows, x0, x1, planes_of(v, rows, 1),
               beta.data(), planes_of(w, cols, 0));
  });
  both([&](int x0, int x1) {
    k.rank1(planes_of(r1, na, lda), rows, x0, x1, planes_of(v, rows, 1),
            planes_of(wt, cols, 0));
  });
  both([&](int x0, int x1) {
    k.gemm_nt(planes_of(a, na, lda), planes_of(g, lda * cols, lda),
              planes_of(nt, na, lda), 0, rows, x0, x1, 0, K);
  });
  both([&](int x0, int x1) {
    k.gemm_nn(planes_of(a, na, lda), planes_of(g, lda * cols, lda),
              planes_of(nn, na, lda), 0, rows, x0, x1, 0, K);
  });
  both([&](int x0, int x1) {
    k.ewise_add(planes_of(ew, na, lda), planes_of(s, na, lda), 0, rows, x0,
                x1);
  });
  // The chain has no columns to split: element 0 of c minus the dot of
  // row 0 of a and row 0 of g.
  std::vector<double> fc(N);
  for (int l = 0; l < N; ++l) fc[std::size_t(l)] = c[std::size_t(l) * na];
  k.fms_chain(fc.data(), planes_of(a, na, lda), planes_of(g, lda * cols, lda),
              cols);
  std::vector<double> out;
  for (const auto* p : {&w, &r1, &nt, &nn, &ew, &fc})
    out.insert(out.end(), p->begin(), p->end());
  return out;
}

// --- the family, one typed suite per fused limb count ----------------------

template <int N>
struct Limbs {
  static constexpr int value = N;
};
template <class L>
class SimdFusedFamily : public ::testing::Test {};
using FusedCounts = ::testing::Types<Limbs<1>, Limbs<2>, Limbs<3>, Limbs<4>,
                                     Limbs<5>, Limbs<6>, Limbs<8>, Limbs<16>>;
TYPED_TEST_SUITE(SimdFusedFamily, FusedCounts);

TEST(SimdFusedFamilyList, TypedSuiteCoversEveryFusedCount) {
  const int tested[] = {1, 2, 3, 4, 5, 6, 8, 16};
  ASSERT_EQ(std::size(tested), std::size(simd::kFusedLimbs));
  for (std::size_t i = 0; i < std::size(tested); ++i)
    EXPECT_EQ(tested[i], simd::kFusedLimbs[i]);
}

TYPED_TEST(SimdFusedFamily, EveryTableMatchesScalarAndSplitsChangeNothing) {
  constexpr int N = TypeParam::value;
  const auto& scalar = simd::table_for(simd::Isa::scalar)->limbs(N);
  for (bool nonfinite : {false, true}) {
    const auto ref = run_kernels<N>(scalar, nonfinite, 0, 0, 13);
    for (simd::Isa isa : simd::supported_isas()) {
      const auto& k = simd::table_for(isa)->limbs(N);
      expect_same(run_kernels<N>(k, nonfinite, 0, 0, 13), ref,
                  nonfinite ? "kernels (Inf/NaN)" : "kernels", isa);
      // Partition invariance: every cut of the column range, including
      // ones that leave a vector body and a scalar tail on each side.
      for (int cut : {1, 3, 5, 8, 12})
        expect_same(run_kernels<N>(k, nonfinite, 0, cut, 13), ref,
                    "split kernels", isa);
    }
  }
}

// The exact value of `terms` as a nonoverlapping expansion (least
// significant first); returns its length.
int exact_sum(const std::vector<double>& terms, std::vector<double>& h) {
  h.assign(terms.size() + 1, 0.0);
  return md::expn::sum_terms(terms.data(), int(terms.size()), h.data());
}

// |r - x| / |x| for the fused result r and the exact value of `terms`.
template <int N>
double relative_error(const double* r, std::vector<double> terms) {
  std::vector<double> h;
  const int lx = exact_sum(terms, h);
  const double x = lx ? std::fabs(h[std::size_t(lx) - 1]) : 0.0;
  for (double& t : terms) t = -t;
  for (int s = 0; s < N; ++s) terms.push_back(r[s]);
  const int ld = exact_sum(terms, h);
  const double d = ld ? std::fabs(h[std::size_t(ld) - 1]) : 0.0;
  return x == 0.0 ? (d == 0.0 ? 0.0 : INFINITY) : d / x;
}

TYPED_TEST(SimdFusedFamily, AddAndMulStayWithinFourUnitsOfTheExactResult) {
  constexpr int N = TypeParam::value;
  using M = simd::MD<simd::VScalar, N>;
  // 4 * 2^(1-53N): covers IEEE at N = 1 (u), the double-word bounds at
  // N = 2 (3u^2 for the add, 7u^2 for the fma-based mul) and N >= 3.
  const double bound = std::ldexp(4.0, 1 - 53 * N);
  std::mt19937_64 gen(0xACC0 + N);
  const int trials = N >= 8 ? 1500 : 6000;
  double worst_add = 0, worst_mul = 0;
  for (int it = 0; it < trials; ++it) {
    const auto a = random_number<N>(gen, it % 3);
    auto b = random_number<N>(gen, (it / 3) % 3);
    if (it % 5 == 1) b = -a;
    if (it % 5 == 2) {  // near cancellation in one limb
      double t[N];
      for (int l = 0; l < N; ++l) t[l] = -a.limb(l);
      const int l = it % N;
      t[l] += std::ldexp(a.limb(0), -53 * l - 1 - it % 50);
      b = md::mdreal<N>::renormalized(t, N);
    }
    typename M::Num x, y;
    for (int s = 0; s < N; ++s) {
      x.l[s] = a.limb(s);
      y.l[s] = b.limb(s);
    }
    const auto sum = M::add(x, y);
    const auto prod = M::mul(x, y);
    md::mdreal<N> rs, rp;
    for (int s = 0; s < N; ++s) {
      rs.set_limb(s, sum.l[s]);
      rp.set_limb(s, prod.l[s]);
    }
    test_support::expect_renormalized(rs);
    test_support::expect_renormalized(rp);

    std::vector<double> st, pt;
    for (int s = 0; s < N; ++s) {
      st.push_back(a.limb(s));
      st.push_back(b.limb(s));
    }
    for (int i = 0; i < N; ++i)
      for (int j = 0; j < N; ++j) {
        double p, e;
        md::two_prod(a.limb(i), b.limb(j), p, e);
        pt.push_back(p);
        pt.push_back(e);
      }
    worst_add = std::max(worst_add, relative_error<N>(sum.l, st));
    worst_mul = std::max(worst_mul, relative_error<N>(prod.l, pt));
  }
  EXPECT_LE(worst_add, bound) << "add, N = " << N;
  EXPECT_LE(worst_mul, bound) << "mul, N = " << N;
}

// --- the sequences at N = 1 and N = 2 --------------------------------------

// The double-double sequences the fused family started from — the
// branch-free accurate add and the fma-based mul of Table 1's d2 row —
// kept verbatim as the N = 2 reference.
void ref_two_sum(double a, double b, double& s, double& e) {
  s = a + b;
  const double bb = s - a;
  e = (a - (s - bb)) + (b - bb);
}
void ref_quick_two_sum(double a, double b, double& s, double& e) {
  s = a + b;
  e = b - (s - a);
}
void ref_dd_add(double ahi, double alo, double bhi, double blo, double& hi,
                double& lo) {
  double s1, s2, t1, t2;
  ref_two_sum(ahi, bhi, s1, s2);
  ref_two_sum(alo, blo, t1, t2);
  s2 = s2 + t1;
  ref_quick_two_sum(s1, s2, s1, s2);
  s2 = s2 + t2;
  ref_quick_two_sum(s1, s2, hi, lo);
}
void ref_dd_mul(double ahi, double alo, double bhi, double blo, double& hi,
                double& lo) {
  const double p1 = ahi * bhi;
  double p2 = std::fma(ahi, bhi, -p1);
  p2 = p2 + ahi * blo;
  p2 = p2 + alo * bhi;
  ref_quick_two_sum(p1, p2, hi, lo);
}

// Per-element references for the kernels of run_kernels' layout, one
// limb count: add/mul/sub over (limb 0, limb 1) pairs at N = 2, IEEE at
// N = 1.
template <int N>
struct RefArith;
template <>
struct RefArith<1> {
  static void add(const double* a, const double* b, double* r) {
    r[0] = a[0] + b[0];
  }
  static void mul(const double* a, const double* b, double* r) {
    r[0] = a[0] * b[0];
  }
  static void sub(const double* a, const double* b, double* r) {
    r[0] = a[0] - b[0];
  }
};
template <>
struct RefArith<2> {
  static void add(const double* a, const double* b, double* r) {
    ref_dd_add(a[0], a[1], b[0], b[1], r[0], r[1]);
  }
  static void mul(const double* a, const double* b, double* r) {
    ref_dd_mul(a[0], a[1], b[0], b[1], r[0], r[1]);
  }
  static void sub(const double* a, const double* b, double* r) {
    ref_dd_add(a[0], a[1], -b[0], -b[1], r[0], r[1]);
  }
};

// Every table's gemm_nn, rank1, ewise_add and fms_chain at N in {1, 2}
// against the reference sequences composed the way the kernels compose
// them.
template <int N>
void expect_reference_sequences() {
  using Ref = RefArith<N>;
  const int I = 4, J = 11, K = 5;
  const std::size_t n = std::size_t(J) * (I > K ? I : K);
  auto a = adversarial_planes<N>(n, 301 + N, true);
  auto b = adversarial_planes<N>(n, 303 + N, true);
  auto s = adversarial_planes<N>(n, 305 + N, true);
  cancel_against<N>(a, s, n, 307 + N);
  auto limbs = [&](const std::vector<double>& p, std::size_t k, double* x) {
    for (int l = 0; l < N; ++l) x[l] = p[l * n + k];
  };
  for (simd::Isa isa : simd::supported_isas()) {
    const auto& k = simd::table_for(isa)->limbs(N);
    std::vector<double> c(n * N), ew = a, r1 = a;
    k.gemm_nn(planes_of(a, n, J), planes_of(b, n, J), planes_of(c, n, J), 0,
              I, 0, J, 0, K);
    k.ewise_add(planes_of(ew, n, J), planes_of(s, n, J), 0, I, 0, J);
    // rank1 over rows [0, I): v = column 0 of b, w = row 0 of s.
    k.rank1(planes_of(r1, n, J), I, 0, J, planes_of(b, n, J),
            planes_of(s, n, J));
    // fms_chain: element 0 of s minus row 0 of a times row 0 of b.
    double chain[N], want_chain[N];
    limbs(s, 0, chain);
    limbs(s, 0, want_chain);
    k.fms_chain(chain, planes_of(a, n, J), planes_of(b, n, J), J);
    for (int t = 0; t < J; ++t) {
      double x[N], y[N], p[N];
      limbs(a, std::size_t(t), x);
      limbs(b, std::size_t(t), y);
      Ref::mul(x, y, p);
      Ref::sub(want_chain, p, want_chain);
    }
    for (int l = 0; l < N; ++l)
      ASSERT_TRUE(same(chain[l], want_chain[l]))
          << "fms_chain limb " << l << " on " << simd::name_of(isa);
    for (int i = 0; i < I; ++i)
      for (int j = 0; j < J; ++j) {
        double acc[N] = {}, x[N], y[N], p[N], want[N];
        for (int t = 0; t < K; ++t) {
          limbs(a, std::size_t(i) * J + t, x);
          limbs(b, std::size_t(t) * J + j, y);
          Ref::mul(x, y, p);
          Ref::add(acc, p, acc);
        }
        const std::size_t at = std::size_t(i) * J + j;
        for (int l = 0; l < N; ++l)
          ASSERT_TRUE(same(c[l * n + at], acc[l]))
              << "gemm_nn (" << i << "," << j << ") limb " << l << " on "
              << simd::name_of(isa);
        limbs(a, at, x);
        limbs(s, at, y);
        Ref::add(x, y, want);
        for (int l = 0; l < N; ++l)
          ASSERT_TRUE(same(ew[l * n + at], want[l]))
              << "ewise_add (" << i << "," << j << ") on "
              << simd::name_of(isa);
        limbs(b, std::size_t(i) * J, x);
        limbs(s, std::size_t(j), y);
        Ref::mul(x, y, p);
        limbs(a, at, x);
        Ref::sub(x, p, want);
        for (int l = 0; l < N; ++l)
          ASSERT_TRUE(same(r1[l * n + at], want[l]))
              << "rank1 (" << i << "," << j << ") on " << simd::name_of(isa);
      }
  }
}

TEST(SimdFusedSequences, OneLimbIsIeeeArithmetic) {
  expect_reference_sequences<1>();
  // ... which is also what the mdreal<1> operators compute, on finite
  // data and on operands whose sum or product overflows to a signed
  // infinity (k < 8).
  std::mt19937_64 gen(0x1D);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  using M = simd::MD<simd::VScalar, 1>;
  for (int k = 0; k < 2000; ++k) {
    const double huge[][2] = {{1e308, 1e308},   {-1e308, -1e308},
                              {1e308, -1e308},  {1.7e308, 1e300},
                              {-1e308, 1e10},   {1e200, 1e200},
                              {-1e200, 1e200},  {1e308, 0.5}};
    const double a = k < 8 ? huge[k][0] : std::ldexp(u(gen), k % 60 - 30),
                 b = k < 8    ? huge[k][1]
                     : k % 7 ? std::ldexp(u(gen), k % 50 - 25)
                             : -a;
    EXPECT_EQ(bits(M::add({{a}}, {{b}}).l[0]), bits(a + b));
    EXPECT_EQ(bits(M::mul({{a}}, {{b}}).l[0]), bits(a * b));
    EXPECT_EQ(bits((md::mdreal<1>(a) + md::mdreal<1>(b)).limb(0)),
              bits(a + b));
    EXPECT_EQ(bits((md::mdreal<1>(a) - md::mdreal<1>(b)).limb(0)),
              bits(a - b));
    EXPECT_EQ(bits((md::mdreal<1>(a) * md::mdreal<1>(b)).limb(0)),
              bits(a * b));
  }
}

TEST(SimdFusedSequences, TwoLimbsKeepTheDoubleDoubleSequences) {
  expect_reference_sequences<2>();
}

// --- end to end -------------------------------------------------------------

// A blocked QR (whose panel and trailing-update stages run the fused
// kernels) must produce limb-identical factors on every ISA tier and at
// parallelism 1 and 4, with measured tallies exactly analytic on each.
template <int N>
void expect_qr_identical_across_tables_and_widths() {
  using T = md::mdreal<N>;
  const int M = 20, C = 12, tile = 4;
  std::mt19937_64 gen(0xB0B5 + N);
  const auto a = blas::random_matrix<T>(M, C, gen);

  ASSERT_TRUE(simd::force_isa(simd::Isa::scalar));
  auto dev0 = make_dev<T>(device::ExecMode::functional);
  const auto f0 = core::blocked_qr(dev0, a, tile);
  test_support::expect_stage_tallies_exact(dev0);

  util::ThreadPool pool(3);
  for (simd::Isa isa : simd::supported_isas())
    for (int width : {1, 4}) {
      ASSERT_TRUE(simd::force_isa(isa));
      auto dev = make_dev<T>(device::ExecMode::functional);
      dev.set_parallelism(&pool, width);
      const auto f = core::blocked_qr(dev, a, tile);
      test_support::expect_stage_tallies_exact(dev);
      for (int i = 0; i < M; ++i)
        for (int j = 0; j < M; ++j)
          ASSERT_TRUE(blas::bit_identical(f.q(i, j), f0.q(i, j)))
              << "Q(" << i << "," << j << ") on " << simd::name_of(isa)
              << " at parallelism " << width;
      for (int i = 0; i < M; ++i)
        for (int j = 0; j < C; ++j)
          ASSERT_TRUE(blas::bit_identical(f.r(i, j), f0.r(i, j)))
              << "R(" << i << "," << j << ") on " << simd::name_of(isa)
              << " at parallelism " << width;
    }
  simd::clear_forced();
}

TEST(SimdFusedQr, FactorsIdenticalAcrossTablesAndWidthsD1D2) {
  expect_qr_identical_across_tables_and_widths<1>();
  expect_qr_identical_across_tables_and_widths<2>();
}
TEST(SimdFusedQr, FactorsIdenticalAcrossTablesAndWidthsD3) {
  expect_qr_identical_across_tables_and_widths<3>();
}
TEST(SimdFusedQr, FactorsIdenticalAcrossTablesAndWidthsD4) {
  expect_qr_identical_across_tables_and_widths<4>();
}
TEST(SimdFusedQr, FactorsIdenticalAcrossTablesAndWidthsD8) {
  expect_qr_identical_across_tables_and_widths<8>();
}

// The path tracker's per-order kernels on the fused family: a correction
// solve on resident factors (fused Q^H r, fused fms chains, operator
// divisions) and a series solve (fused Toeplitz convolution plus one
// correction solve per order), forced onto each ISA and run at
// parallelism 1 and 4, reproduce the forced-scalar sequential answers
// limb-for-limb, with measured == analytic per stage, and the dry runs
// price the functional schedules exactly.
template <int N>
void expect_solves_identical_across_tables_and_widths() {
  using T = md::mdreal<N>;
  const int m = 12, band = 3, orders = 5, tile = 4;
  std::mt19937_64 gen(0x5017 + N);
  std::vector<blas::Matrix<T>> blocks;
  for (int j = 0; j < band; ++j)
    blocks.push_back(blas::random_matrix<T>(m, m, gen));
  for (int i = 0; i < m; ++i) blocks[0](i, i) += T(4.0);
  const auto r = blas::random_vector<T>(m, gen);
  std::vector<blas::Vector<T>> rhs;
  for (int k = 0; k < orders; ++k)
    rhs.push_back(blas::random_vector<T>(m, gen));

  struct Run {
    blas::Vector<T> dx;
    std::vector<blas::Vector<T>> x;
  };
  util::ThreadPool pool(3);
  auto run = [&](simd::Isa isa, int width) {
    EXPECT_TRUE(simd::force_isa(isa));
    auto fdev = make_dev<T>(device::ExecMode::functional);
    core::BlockToeplitzSolver<T> solver(fdev, blocks, tile);
    Run out;
    auto cdev = make_dev<T>(device::ExecMode::functional);
    cdev.set_parallelism(&pool, width);
    out.dx = solver.solve_diag_on(cdev, std::span<const T>(r), tile);
    test_support::expect_stage_tallies_exact(cdev);
    auto cdry = make_dev<T>(device::ExecMode::dry_run);
    core::correction_solve_dry<T>(cdry, m, m, tile);
    EXPECT_DOUBLE_EQ(cdry.kernel_ms(), cdev.kernel_ms());
    EXPECT_EQ(cdry.launches(), cdev.launches());
    EXPECT_TRUE(cdry.analytic_total() == cdev.analytic_total());

    auto sdev = make_dev<T>(device::ExecMode::functional);
    sdev.set_parallelism(&pool, width);
    out.x = solver.solve_on(sdev, rhs, tile);
    test_support::expect_stage_tallies_exact(sdev);
    auto sdry = make_dev<T>(device::ExecMode::dry_run);
    core::BlockToeplitzSolver<T>::solve_series_dry(sdry, m, band, orders,
                                                   tile);
    EXPECT_DOUBLE_EQ(sdry.kernel_ms(), sdev.kernel_ms());
    EXPECT_EQ(sdry.launches(), sdev.launches());
    EXPECT_TRUE(sdry.analytic_total() == sdev.analytic_total());
    return out;
  };
  auto expect_bits = [](const blas::Vector<T>& a, const blas::Vector<T>& b,
                        const std::string& what) {
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
      ASSERT_TRUE(blas::bit_identical(a[i], b[i])) << what << " [" << i << "]";
  };

  const Run ref = run(simd::Isa::scalar, 1);
  for (simd::Isa isa : simd::supported_isas())
    for (int width : {1, 4}) {
      const Run got = run(isa, width);
      const std::string where = std::string(simd::name_of(isa)) +
                                " at parallelism " + std::to_string(width);
      expect_bits(got.dx, ref.dx, "correction " + where);
      ASSERT_EQ(got.x.size(), ref.x.size());
      for (std::size_t k = 0; k < ref.x.size(); ++k)
        expect_bits(got.x[k], ref.x[k],
                    "order " + std::to_string(k) + " " + where);
    }
  simd::clear_forced();
}

TEST(SimdFusedSolve, CorrectionAndSeriesSolvesIdenticalD1D2) {
  expect_solves_identical_across_tables_and_widths<1>();
  expect_solves_identical_across_tables_and_widths<2>();
}
TEST(SimdFusedSolve, CorrectionAndSeriesSolvesIdenticalD3D4) {
  expect_solves_identical_across_tables_and_widths<3>();
  expect_solves_identical_across_tables_and_widths<4>();
}
TEST(SimdFusedSolve, CorrectionAndSeriesSolvesIdenticalD8) {
  expect_solves_identical_across_tables_and_widths<8>();
}

// Each y_j of the fused Q^H r lies within m * 4 * 2^(1-53N) *
// sum_i |q_ij r_i| of the exact dot: every term's exact two_prod
// expansion distilled by the oracle engine behind add_exact_oracle.
template <int N>
void expect_adjoint_gemv_near_exact_dot() {
  using T = md::mdreal<N>;
  const int m = 13, c = 11;  // vector bodies and tails at every width
  std::mt19937_64 gen(0xD07 + N);
  const auto qh = blas::random_matrix<T>(m, c, gen);
  const auto r = blas::random_vector<T>(m, gen);
  const auto q = device::Staged2D<T>::from_host(qh);
  blas::Vector<T> y(static_cast<std::size_t>(c));
  blas::gemv_adjoint_cols<T>(q.view(), std::span<const T>(r),
                             std::span<T>(y));
  const double unit = std::ldexp(4.0, 1 - 53 * N);
  for (int j = 0; j < c; ++j) {
    std::vector<double> terms;
    double mag_sum = 0.0;
    for (int i = 0; i < m; ++i) {
      mag_sum += std::fabs(qh(i, j).to_double() * r[i].to_double());
      for (int a = 0; a < N; ++a)
        for (int b = 0; b < N; ++b) {
          double p, e;
          md::two_prod(qh(i, j).limb(a), r[i].limb(b), p, e);
          terms.push_back(-p);
          terms.push_back(-e);
        }
    }
    for (int s = 0; s < N; ++s) terms.push_back(y[j].limb(s));
    std::vector<double> h;
    const int len = exact_sum(terms, h);
    const double err = len ? std::fabs(h[std::size_t(len) - 1]) : 0.0;
    EXPECT_LE(err, m * unit * mag_sum) << "y_" << j << ", N = " << N;
  }
}

TEST(SimdFusedSolve, AdjointGemvStaysNearTheExactDot) {
  expect_adjoint_gemv_near_exact_dot<1>();
  expect_adjoint_gemv_near_exact_dot<2>();
  expect_adjoint_gemv_near_exact_dot<3>();
  expect_adjoint_gemv_near_exact_dot<4>();
  expect_adjoint_gemv_near_exact_dot<8>();
}

// The scalar EFT two_prod (md/eft.hpp) may use the Dekker/Veltkamp split
// when the build has no guaranteed hardware fma; inside its documented
// exactness domain it must agree bit-for-bit with the fma form.
TEST(SimdFusedDd, EftTwoProdMatchesFmaOnRenormalizedRange) {
  std::mt19937_64 gen(0xEF7);
  std::uniform_real_distribution<double> mant(-1.0, 1.0);
  std::uniform_int_distribution<int> expo(-480, 480);
  for (int k = 0; k < 20000; ++k) {
    const double a = std::ldexp(mant(gen), expo(gen));
    const double b = std::ldexp(mant(gen), expo(gen));
    if (a == 0.0 || b == 0.0) continue;
    const double p0 = a * b;
    if (std::fpclassify(p0) != FP_NORMAL) continue;
    double p, e;
    md::two_prod(a, b, p, e);
    ASSERT_EQ(bits(p), bits(p0));
    ASSERT_EQ(bits(e), bits(std::fma(a, b, -p0)))
        << "a=" << a << " b=" << b;
  }
}

}  // namespace
}  // namespace mdlsq
