// Cross-ISA bit-identity of the dispatched SIMD layer (md/simd/,
// DESIGN.md §9).
//
// The dispatch contract is that ISA selection is purely a speed decision:
// every compiled table — scalar, AVX2, AVX-512, NEON — must produce
// bit-identical results, subnormal trailing limbs included.  These tests
// sweep the fused double-double kernels of all tables the host supports
// against the scalar reference, pin their partition invariance, and
// close the loop end-to-end: a double-double blocked QR forced onto each
// ISA must reproduce the forced-scalar factors limb-for-limb.
//
// Also here: the plane-kernel tally contract (empty — plane kernels
// execute no multiple-double operations) and the planes::copy overlap
// regression (memmove semantics).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <span>
#include <vector>

#include "core/blocked_qr.hpp"
#include "md/eft.hpp"
#include "md/mdreal.hpp"
#include "md/planes.hpp"
#include "md/simd/dispatch.hpp"
#include "support/test_support.hpp"

namespace mdlsq {
namespace {

using test_support::make_dev;
namespace simd = md::simd;

std::uint64_t bits(double x) {
  std::uint64_t u;
  std::memcpy(&u, &x, sizeof u);
  return u;
}

void expect_bits_eq(std::span<const double> a, std::span<const double> b,
                    const char* what, simd::Isa isa) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_EQ(bits(a[i]), bits(b[i]))
        << what << " diverges from scalar on " << simd::name_of(isa)
        << " at index " << i << ": " << a[i] << " vs " << b[i];
}

// Random double-double planes: hi at scale ~1, lo a plausible trailing
// limb (including exact zeros and values driven subnormal).
void random_dd_planes(std::size_t n, std::uint64_t seed,
                      std::vector<double>& hi, std::vector<double>& lo) {
  std::mt19937_64 gen(seed);
  std::uniform_real_distribution<double> mant(-1.0, 1.0);
  std::bernoulli_distribution zero_lo(0.125), tiny(0.0625);
  hi.resize(n);
  lo.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    hi[i] = mant(gen);
    lo[i] = zero_lo(gen) ? 0.0 : std::ldexp(mant(gen), -53);
    if (tiny(gen)) {
      hi[i] = std::ldexp(hi[i], -1000);
      lo[i] = std::ldexp(lo[i], -1000);  // lo becomes subnormal
    }
  }
}

TEST(SimdDispatch, SupportedTiersEndWithScalarAndActiveIsBest) {
  const auto isas = simd::supported_isas();
  ASSERT_FALSE(isas.empty());
  EXPECT_EQ(isas.back(), simd::Isa::scalar);
  ASSERT_NE(simd::table_for(simd::Isa::scalar), nullptr);
  // No force live: the active table is the best supported tier (unless
  // the MDLSQ_SIMD triage cap is set in the environment).
  simd::clear_forced();
  if (std::getenv("MDLSQ_SIMD") == nullptr)
    EXPECT_EQ(simd::active_isa(), isas.front());
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

TEST(SimdFusedDd, PanelKernelsBitIdenticalAcrossIsasAndSplits) {
  const int rows = 7, cols = 13;
  const std::size_t lda = 17;  // padded leading dimension
  std::vector<double> ahi, alo, vhi, vlo;
  random_dd_planes(lda * rows, 101, ahi, alo);
  random_dd_planes(std::size_t(rows), 103, vhi, vlo);
  const double bhi = 0.75, blo = 0x1p-55;

  std::vector<double> w0hi(cols), w0lo(cols);
  const auto* ref = simd::table_for(simd::Isa::scalar);
  ref->dd_col_dots(ahi.data(), alo.data(), lda, rows, 0, cols, vhi.data(),
                   vlo.data(), bhi, blo, w0hi.data(), w0lo.data());
  auto r0hi = ahi, r0lo = alo;
  ref->dd_rank1(r0hi.data(), r0lo.data(), lda, rows, 0, cols, vhi.data(),
                vlo.data(), w0hi.data(), w0lo.data());

  for (simd::Isa isa : simd::supported_isas()) {
    const auto* t = simd::table_for(isa);
    std::vector<double> whi(cols), wlo(cols);
    t->dd_col_dots(ahi.data(), alo.data(), lda, rows, 0, cols, vhi.data(),
                   vlo.data(), bhi, blo, whi.data(), wlo.data());
    expect_bits_eq(whi, w0hi, "col_dots hi", isa);
    expect_bits_eq(wlo, w0lo, "col_dots lo", isa);

    // Partition invariance: splitting the column range at any point must
    // not change a single bit (the task-width contract of launch_tiled).
    for (int cut : {1, 5, 12}) {
      std::vector<double> shi(cols), slo(cols);
      t->dd_col_dots(ahi.data(), alo.data(), lda, rows, 0, cut, vhi.data(),
                     vlo.data(), bhi, blo, shi.data(), slo.data());
      t->dd_col_dots(ahi.data(), alo.data(), lda, rows, cut, cols, vhi.data(),
                     vlo.data(), bhi, blo, shi.data(), slo.data());
      expect_bits_eq(shi, w0hi, "split col_dots hi", isa);
      expect_bits_eq(slo, w0lo, "split col_dots lo", isa);
    }

    auto rhi = ahi, rlo = alo;
    t->dd_rank1(rhi.data(), rlo.data(), lda, rows, 0, cols, vhi.data(),
                vlo.data(), w0hi.data(), w0lo.data());
    expect_bits_eq(rhi, r0hi, "rank1 hi", isa);
    expect_bits_eq(rlo, r0lo, "rank1 lo", isa);
  }
}

TEST(SimdFusedDd, GemmAndEwiseBitIdenticalAcrossIsas) {
  const int I = 5, J = 13, K = 9;
  const std::size_t lda = K, ldb = 16, ldc = J, lds = J;
  std::vector<double> ahi, alo, bhi, blo;
  random_dd_planes(std::size_t(I) * lda, 201, ahi, alo);
  random_dd_planes(std::size_t(J > K ? J : K) * ldb, 203, bhi, blo);

  const auto* ref = simd::table_for(simd::Isa::scalar);
  std::vector<double> nt0hi(std::size_t(I) * ldc), nt0lo(nt0hi.size());
  std::vector<double> nn0hi(nt0hi.size()), nn0lo(nt0hi.size());
  ref->dd_gemm_nt(ahi.data(), alo.data(), lda, bhi.data(), blo.data(), ldb,
                  nt0hi.data(), nt0lo.data(), ldc, 0, I, 0, J, 0, K);
  ref->dd_gemm_nn(ahi.data(), alo.data(), lda, bhi.data(), blo.data(), ldb,
                  nn0hi.data(), nn0lo.data(), ldc, 0, I, 0, J, 0, K);
  auto e0hi = nt0hi, e0lo = nt0lo;
  ref->dd_ewise_add(e0hi.data(), e0lo.data(), ldc, nn0hi.data(), nn0lo.data(),
                    lds, 0, I, 0, J);

  for (simd::Isa isa : simd::supported_isas()) {
    const auto* t = simd::table_for(isa);
    std::vector<double> chi(nt0hi.size()), clo(nt0hi.size());
    t->dd_gemm_nt(ahi.data(), alo.data(), lda, bhi.data(), blo.data(), ldb,
                  chi.data(), clo.data(), ldc, 0, I, 0, J, 0, K);
    expect_bits_eq(chi, nt0hi, "gemm_nt hi", isa);
    expect_bits_eq(clo, nt0lo, "gemm_nt lo", isa);

    t->dd_gemm_nn(ahi.data(), alo.data(), lda, bhi.data(), blo.data(), ldb,
                  chi.data(), clo.data(), ldc, 0, I, 0, J, 0, K);
    expect_bits_eq(chi, nn0hi, "gemm_nn hi", isa);
    expect_bits_eq(clo, nn0lo, "gemm_nn lo", isa);

    auto dhi = nt0hi, dlo = nt0lo;
    t->dd_ewise_add(dhi.data(), dlo.data(), ldc, nn0hi.data(), nn0lo.data(),
                    lds, 0, I, 0, J);
    expect_bits_eq(dhi, e0hi, "ewise_add hi", isa);
    expect_bits_eq(dlo, e0lo, "ewise_add lo", isa);
  }
}

// End to end: the double-double blocked QR (which routes its panel and
// trailing-update stages through the fused kernels) must produce
// limb-identical factors on every ISA tier, and its measured tallies must
// stay exactly analytic on each.
TEST(SimdFusedDd, BlockedQrFactorsBitIdenticalAcrossIsas) {
  const int M = 20, C = 12, tile = 4;
  std::mt19937_64 gen(0xB0B5);
  const auto a = blas::random_matrix<md::dd_real>(M, C, gen);

  ASSERT_TRUE(simd::force_isa(simd::Isa::scalar));
  auto dev0 = make_dev<md::dd_real>(device::ExecMode::functional);
  const auto f0 = core::blocked_qr(dev0, a, tile);
  test_support::expect_stage_tallies_exact(dev0);

  for (simd::Isa isa : simd::supported_isas()) {
    ASSERT_TRUE(simd::force_isa(isa));
    auto dev = make_dev<md::dd_real>(device::ExecMode::functional);
    const auto f = core::blocked_qr(dev, a, tile);
    test_support::expect_stage_tallies_exact(dev);
    for (int i = 0; i < M; ++i)
      for (int j = 0; j < M; ++j)
        for (int l = 0; l < 2; ++l)
          ASSERT_EQ(bits(f.q(i, j).limb(l)),
                    bits(f0.q(i, j).limb(l)))
              << "Q(" << i << "," << j << ") limb " << l << " on "
              << simd::name_of(isa);
    for (int i = 0; i < M; ++i)
      for (int j = 0; j < C; ++j)
        for (int l = 0; l < 2; ++l)
          ASSERT_EQ(bits(f.r(i, j).limb(l)),
                    bits(f0.r(i, j).limb(l)))
              << "R(" << i << "," << j << ") limb " << l << " on "
              << simd::name_of(isa);
  }
  simd::clear_forced();
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
