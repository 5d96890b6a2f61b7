// End-to-end least squares: the device pipeline (blocked QR + Q^H b +
// tiled back substitution) checked by the property-based conformance
// harness — seeded shape sweeps with the normal-equations optimality
// oracle A^H (b - A x) = 0, host-baseline agreement, tally exactness and
// dry-run equivalence replace the fixed dimensions this file used to
// enumerate — plus the QR-vs-BS time split of Table 11, the shape
// contract every solver entry point enforces in Release builds, and the
// non-finite contract (NaN/Inf in, non-finite x out).
#include <gtest/gtest.h>

#include <limits>
#include <random>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "blas/generate.hpp"
#include "blas/norms.hpp"
#include "core/back_substitution.hpp"
#include "core/least_squares.hpp"
#include "md/simd/dispatch.hpp"
#include "support/conformance.hpp"
#include "support/test_support.hpp"

using namespace mdlsq;
using test_support::check_lsq_conformance;
using test_support::make_dev;
using test_support::shape_sweep;

TEST(LeastSquaresConformance, SweepDoubleDouble) {
  for (const auto& c : shape_sweep(0xa231, 6, 12, 4, 24))
    check_lsq_conformance<md::dd_real>(c);
}
TEST(LeastSquaresConformance, SweepQuadDouble) {
  for (const auto& c : shape_sweep(0xa232, 4))
    check_lsq_conformance<md::qd_real>(c);
}
TEST(LeastSquaresConformance, SweepOctoDouble) {
  for (const auto& c : shape_sweep(0xa233, 3, 8, 2, 8))
    check_lsq_conformance<md::od_real>(c);
}
TEST(LeastSquaresConformance, SweepComplexDoubleDouble) {
  for (const auto& c : shape_sweep(0xa234, 4))
    check_lsq_conformance<md::dd_complex>(c);
}
TEST(LeastSquaresConformance, SweepComplexQuadDouble) {
  for (const auto& c : shape_sweep(0xa235, 3, 8, 2, 8))
    check_lsq_conformance<md::qd_complex>(c);
}

TEST(LeastSquares, ExactlyConsistentSystemHasZeroResidual) {
  // b in range(A): the residual itself must vanish at working precision.
  std::mt19937_64 gen(102);
  auto a = blas::random_matrix<md::qd_real>(40, 20, gen);
  auto xs = blas::random_vector<md::qd_real>(20, gen);
  auto b = blas::gemv(a, std::span<const md::qd_real>(xs));
  auto dev = make_dev<md::qd_real>(device::ExecMode::functional);
  auto res = core::least_squares(dev, a, b, 10);
  EXPECT_LE(blas::residual_norm(a, std::span<const md::qd_real>(res.x),
                                std::span<const md::qd_real>(b))
                .to_double(),
            1e5 * md::qd_real::eps());
  for (int i = 0; i < 20; ++i)
    EXPECT_LE(blas::abs_of(res.x[i] - xs[i]).to_double(),
              1e6 * md::qd_real::eps());
}

TEST(LeastSquares, HostBaselineMinimizesResidual) {
  // Perturbing the host solution must increase ||b - A x||_2.
  std::mt19937_64 gen(103);
  auto a = blas::random_matrix<md::dd_real>(30, 10, gen);
  auto b = blas::random_vector<md::dd_real>(30, gen);
  auto x = core::least_squares_host(a, std::span<const md::dd_real>(b));
  const double r0 = blas::residual_norm(a, std::span<const md::dd_real>(x),
                                        std::span<const md::dd_real>(b))
                        .to_double();
  for (int k = 0; k < 10; ++k) {
    auto xp = x;
    xp[k] += md::dd_real(1e-6);
    const double rp = blas::residual_norm(a, std::span<const md::dd_real>(xp),
                                          std::span<const md::dd_real>(b))
                          .to_double();
    EXPECT_GE(rp, r0);
  }
}

TEST(LeastSquares, BsTimeMuchSmallerThanQrTime) {
  // Table 11: the back substitution kernel time is roughly two orders of
  // magnitude below the QR kernel time at dimension 1,024, so the solver
  // keeps the QR's teraflop rate.
  auto dev = make_dev<md::qd_real>(device::ExecMode::dry_run);
  auto res = core::least_squares_dry<md::qd_real>(dev, 1024, 1024, 128);
  EXPECT_GT(res.qr_kernel_ms, 20.0 * res.bs_kernel_ms);
  EXPECT_GT(dev.kernel_gflops(), 1000.0);
}

TEST(LeastSquares, SolverFlopsCloseToQrFlops) {
  auto qr_only = make_dev<md::dd_real>(device::ExecMode::dry_run);
  core::blocked_qr_dry<md::dd_real>(qr_only, 1024, 1024, 128);
  auto solver = make_dev<md::dd_real>(device::ExecMode::dry_run);
  core::least_squares_dry<md::dd_real>(solver, 1024, 1024, 128);
  EXPECT_NEAR(solver.kernel_gflops() / qr_only.kernel_gflops(), 1.0, 0.05);
}

TEST(LeastSquares, StageListIsQrThenQhbThenBs) {
  auto dev = make_dev<md::dd_real>(device::ExecMode::dry_run);
  core::least_squares_dry<md::dd_real>(dev, 64, 64, 32);
  const auto& st = dev.stages();
  ASSERT_GE(st.size(), 12u);
  EXPECT_EQ(st[0].name, "beta,v");
  bool saw_qhb = false, saw_bs_after_qhb = false;
  for (std::size_t i = 0; i < st.size(); ++i) {
    if (st[i].name == core::stage::qhb) saw_qhb = true;
    if (saw_qhb && st[i].name == core::stage::bs_invert)
      saw_bs_after_qhb = true;
  }
  EXPECT_TRUE(saw_qhb);
  EXPECT_TRUE(saw_bs_after_qhb);
}

// --- shape contract, in the default Release build ----------------------------
// The build compiles assert out, so these checks must be real throws: a
// right-hand side shorter than A read past its end in the Q^H b launch,
// M < C wrote past R's end in blocked QR, and a tile that does not
// divide C ran the whole QR before failing in back substitution.  Every
// entry point now rejects the shape before any staging or launch, so a
// refused call leaves the device untouched.

namespace {

using ShapeT = md::dd_real;

// Runs `call` against a fresh device of `mode` and expects it to throw
// std::invalid_argument with no launch and no transfer recorded.
template <class F>
void expect_rejected_untouched(device::ExecMode mode, F&& call) {
  auto dev = make_dev<ShapeT>(mode);
  EXPECT_THROW(call(dev), std::invalid_argument);
  EXPECT_EQ(dev.launches(), 0);
  EXPECT_EQ(dev.wall_ms(), 0.0);  // nothing staged either
}

}  // namespace

TEST(ShapeContract, LeastSquaresRejectsBadShapesBeforeAnyLaunch) {
  std::mt19937_64 gen(0x5a9e1);
  const auto a = blas::random_matrix<ShapeT>(16, 8, gen);
  const auto b = blas::random_vector<ShapeT>(16, gen);
  const auto fn = device::ExecMode::functional;
  const auto lsq = [](const blas::Matrix<ShapeT>& m,
                      const blas::Vector<ShapeT>& v, int tile) {
    return [&m, &v, tile](device::Device& dev) {
      core::least_squares(dev, m, v, tile);
    };
  };
  const auto short_b = blas::random_vector<ShapeT>(15, gen);
  const auto long_b = blas::random_vector<ShapeT>(17, gen);
  const auto wide = blas::random_matrix<ShapeT>(4, 8, gen);
  const auto wide_b = blas::random_vector<ShapeT>(4, gen);
  expect_rejected_untouched(fn, lsq(a, short_b, 4));
  expect_rejected_untouched(fn, lsq(a, long_b, 4));
  expect_rejected_untouched(fn, lsq(wide, wide_b, 4));  // M < C
  expect_rejected_untouched(fn, lsq(a, b, 3));          // C % tile != 0
  expect_rejected_untouched(fn, lsq(a, b, 0));          // tile < 1
  expect_rejected_untouched(fn, lsq(a, b, -4));

  const auto dry = device::ExecMode::dry_run;
  for (const auto& [m, c, tile] :
       {std::tuple{4, 8, 4}, std::tuple{16, 8, 3}, std::tuple{16, 8, 0}})
    expect_rejected_untouched(dry, [m, c, tile](device::Device& dev) {
      core::least_squares_dry<ShapeT>(dev, m, c, tile);
    });

  // The valid shape still solves.
  auto dev = make_dev<ShapeT>(fn);
  EXPECT_EQ(core::least_squares(dev, a, b, 4).x.size(), 8u);
}

TEST(ShapeContract, BlockedQrRejectsBadShapesBeforeAnyLaunch) {
  std::mt19937_64 gen(0x5a9e2);
  const auto fn = device::ExecMode::functional;
  for (const auto& [m, c, tile] :
       {std::tuple{4, 8, 4}, std::tuple{16, 8, 3}, std::tuple{16, 8, 0}}) {
    const auto a = blas::random_matrix<ShapeT>(m, c, gen);
    expect_rejected_untouched(fn, [&a, tile](device::Device& dev) {
      core::blocked_qr(dev, a, tile);
    });
    expect_rejected_untouched(
        device::ExecMode::dry_run, [m, c, tile](device::Device& dev) {
          core::blocked_qr_dry<ShapeT>(dev, m, c, tile);
        });
  }
}

TEST(ShapeContract, TiledBackSubRejectsBadShapesBeforeAnyLaunch) {
  std::mt19937_64 gen(0x5a9e3);
  const auto u = blas::random_matrix<ShapeT>(8, 8, gen);
  const auto b = blas::random_vector<ShapeT>(8, gen);
  const auto short_b = blas::random_vector<ShapeT>(7, gen);
  const auto fn = device::ExecMode::functional;
  const auto bs = [](const blas::Matrix<ShapeT>& m,
                     const blas::Vector<ShapeT>& v, int tiles, int size) {
    return [&m, &v, tiles, size](device::Device& dev) {
      core::tiled_back_sub(dev, m, v, tiles, size);
    };
  };
  expect_rejected_untouched(fn, bs(u, short_b, 2, 4));  // rhs length
  expect_rejected_untouched(fn, bs(u, b, 3, 4));        // U not 12-square
  expect_rejected_untouched(fn, bs(u, b, 2, 0));        // tile size < 1
  expect_rejected_untouched(fn, bs(u, b, 0, 8));        // no tiles
  for (const auto& [tiles, size] : {std::pair{0, 4}, std::pair{2, 0}})
    expect_rejected_untouched(
        device::ExecMode::dry_run, [tiles, size](device::Device& dev) {
          core::tiled_back_sub_dry<ShapeT>(dev, tiles, size);
        });
}

// The non-finite contract of least_squares in the default Release build:
// a NaN or an Inf anywhere in A or b never yields a finite answer — some
// entry of x is non-finite.  Pinned at d1, d2, d3, d4 and d8 under every
// compiled kernel table, because the fused kernels' fixed-sequence
// two_sum turns an Inf into a NaN rather than carrying it.
namespace {

template <int N>
void expect_nonfinite_in_nonfinite_out() {
  using T = md::mdreal<N>;
  const int M = 12, C = 8, tile = 4;
  std::mt19937_64 gen(0xBAD0 + N);
  const auto a = blas::random_matrix<T>(M, C, gen);
  const auto b = blas::random_vector<T>(M, gen);
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()};
  // (row, column) of the poisoned entry; column -1 poisons b instead.
  const std::pair<int, int> where[] = {{0, 0},      {M - 1, C - 1}, {5, 3},
                                       {C - 1, 0},  {0, -1},        {M - 1, -1},
                                       {C - 1, -1}};
  for (md::simd::Isa isa : md::simd::supported_isas()) {
    ASSERT_TRUE(md::simd::force_isa(isa));
    for (double bad : specials)
      for (const auto& [i, j] : where) {
        auto pa = a;
        auto pb = b;
        if (j < 0)
          pb[static_cast<std::size_t>(i)] = T(bad);
        else
          pa(i, j) = T(bad);
        auto dev = make_dev<T>(device::ExecMode::functional);
        const auto x = core::least_squares(dev, pa, pb, tile).x;
        bool nonfinite = false;
        for (const auto& v : x) nonfinite |= !v.isfinite();
        EXPECT_TRUE(nonfinite)
            << "d" << N << " " << bad << " at (" << i << "," << j << ") on "
            << md::simd::name_of(isa) << " gave a finite x";
      }
  }
  md::simd::clear_forced();
}

}  // namespace

TEST(NonFiniteContract, NanOrInfAnywhereInAOrBGivesNonFiniteX) {
  expect_nonfinite_in_nonfinite_out<1>();
  expect_nonfinite_in_nonfinite_out<2>();
  expect_nonfinite_in_nonfinite_out<3>();
  expect_nonfinite_in_nonfinite_out<4>();
  expect_nonfinite_in_nonfinite_out<8>();
}
