// Mixed-precision iterative refinement: convergence to the high target
// precision from a cheap low-precision factorization, iteration counts,
// precision conversion exactness, and graceful stagnation on problems too
// ill-conditioned for the low format.
#include <gtest/gtest.h>

#include <random>

#include "blas/generate.hpp"
#include "blas/norms.hpp"
#include "core/refinement.hpp"

using namespace mdlsq;
using mdlsq::md::mdreal;

TEST(PrecisionConversion, WideningIsExact) {
  std::mt19937_64 gen(401);
  auto x = md::random_uniform<2>(gen);
  auto w = x.to_precision<4>();
  EXPECT_EQ(w.limb(0), x.limb(0));
  EXPECT_EQ(w.limb(1), x.limb(1));
  EXPECT_EQ(w.limb(2), 0.0);
  // and back down loses nothing
  auto back = w.to_precision<2>();
  EXPECT_TRUE(back == x);
}

TEST(PrecisionConversion, NarrowingIsFaithful) {
  std::mt19937_64 gen(402);
  auto x = md::random_uniform<8>(gen);
  auto n4 = x.to_precision<4>();
  auto diff = x - n4.to_precision<8>();
  EXPECT_LE(std::fabs(diff.to_double()), mdreal<4>::eps());
}

TEST(Refinement, ReachesQuadDoubleFromDoubleDouble) {
  std::mt19937_64 gen(403);
  auto a = blas::random_matrix<mdreal<4>>(24, 24, gen);
  auto want = blas::random_vector<mdreal<4>>(24, gen);
  auto b = blas::gemv(a, std::span<const mdreal<4>>(want));
  auto res = core::refined_least_squares<2, 4>(
      a, std::span<const mdreal<4>>(b));
  EXPECT_TRUE(res.converged);
  for (int i = 0; i < 24; ++i)
    EXPECT_LE(std::fabs((res.x[i] - want[i]).to_double()),
              1e5 * mdreal<4>::eps());
  // Each iteration must gain roughly the low precision's digits: from a
  // dd factorization, qd accuracy needs only a couple of corrections.
  EXPECT_LE(res.iterations, 6);
  // Residual history is (essentially) monotone decreasing.
  for (std::size_t k = 1; k < res.residual_history.size(); ++k)
    EXPECT_LE(res.residual_history[k], res.residual_history[k - 1] * 1.01);
}

TEST(Refinement, ReachesOctoDoubleFromQuadDouble) {
  std::mt19937_64 gen(404);
  auto a = blas::random_matrix<mdreal<8>>(12, 12, gen);
  auto want = blas::random_vector<mdreal<8>>(12, gen);
  auto b = blas::gemv(a, std::span<const mdreal<8>>(want));
  auto res = core::refined_least_squares<4, 8>(
      a, std::span<const mdreal<8>>(b));
  EXPECT_TRUE(res.converged);
  for (int i = 0; i < 12; ++i)
    EXPECT_LE(std::fabs((res.x[i] - want[i]).to_double()),
              1e6 * mdreal<8>::eps());
  EXPECT_LE(res.iterations, 6);
}

TEST(Refinement, OverdeterminedConsistentSystems) {
  // With b in range(A), x-only refinement converges to full precision
  // also in the overdetermined case.
  std::mt19937_64 gen(405);
  auto a = blas::random_matrix<mdreal<4>>(40, 16, gen);
  auto want = blas::random_vector<mdreal<4>>(16, gen);
  auto b = blas::gemv(a, std::span<const mdreal<4>>(want));
  auto res = core::refined_least_squares<2, 4>(
      a, std::span<const mdreal<4>>(b));
  EXPECT_TRUE(res.converged);
  for (int i = 0; i < 16; ++i)
    EXPECT_LE(std::fabs((res.x[i] - want[i]).to_double()),
              1e6 * mdreal<4>::eps());
}

TEST(Refinement, InconsistentSystemsStallAtLowPrecisionGradient) {
  // Classical limitation (Bjorck): refining x alone on an INCONSISTENT
  // least-squares problem cannot push the gradient A^T(b - Ax) below the
  // level set by the low-precision factors; full-precision convergence
  // needs the augmented-system formulation.  The driver must stop via
  // its stagnation guard and still deliver dd-level optimality.
  std::mt19937_64 gen(406);
  auto a = blas::random_matrix<mdreal<4>>(40, 16, gen);
  auto b = blas::random_vector<mdreal<4>>(40, gen);  // not in range(A)
  auto res = core::refined_least_squares<2, 4>(
      a, std::span<const mdreal<4>>(b), 30);
  EXPECT_LT(res.iterations, 30);
  EXPECT_FALSE(res.converged);
  EXPECT_LE(res.residual_history.back(), 1e3 * mdreal<2>::eps());
}

TEST(Refinement, StagnatesGracefullyWhenTooIllConditioned) {
  // A Hilbert block of dimension 14 has condition ~ 2e19 < 1/eps(dd)
  // but ~1e36 at 24: beyond the dd factorization's reach, refinement
  // must stop (stagnation guard) instead of looping forever.
  const int n = 24;
  blas::Matrix<mdreal<4>> h(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      h(i, j) = mdreal<4>(1.0) / mdreal<4>(double(i + j + 1));
  blas::Vector<mdreal<4>> ones(n, mdreal<4>(1.0));
  auto b = blas::gemv(h, std::span<const mdreal<4>>(ones));
  auto res = core::refined_least_squares<2, 4>(
      h, std::span<const mdreal<4>>(b), 30);
  EXPECT_LT(res.iterations, 30);  // stopped, one way or another
  EXPECT_FALSE(res.converged);
}

TEST(Refinement, FactorsAreReusableAcrossRightHandSides) {
  std::mt19937_64 gen(406);
  auto a = blas::random_matrix<mdreal<4>>(16, 16, gen);
  blas::Matrix<mdreal<2>> al(16, 16);
  for (int i = 0; i < 16; ++i)
    for (int j = 0; j < 16; ++j) al(i, j) = a(i, j).to_precision<2>();
  const auto f = core::householder_qr(al);
  for (int rhs = 0; rhs < 3; ++rhs) {
    auto want = blas::random_vector<mdreal<2>>(16, gen);
    auto bl = blas::gemv(al, std::span<const mdreal<2>>(want));
    auto x =
        core::least_squares_with_factors(f, std::span<const mdreal<2>>(bl));
    for (int i = 0; i < 16; ++i)
      EXPECT_LE(std::fabs((x[i] - want[i]).to_double()),
                1e5 * mdreal<2>::eps());
  }
}
