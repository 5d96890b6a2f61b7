// Mixed-precision iterative refinement through its one driver, the
// adaptive precision ladder with a two-rung sequence {low, high}: factor
// once in the cheap low precision, then refine with high-precision
// residuals on the resident low-precision factors.  Convergence to the
// high target with few corrections, precision conversion exactness,
// the stall on inconsistent systems, and the refactorization when the
// low factors cannot contract.
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/generate.hpp"
#include "blas/norms.hpp"
#include "blas/vector_ops.hpp"
#include "core/adaptive_lsq.hpp"
#include "core/back_substitution.hpp"
#include "core/householder.hpp"

using namespace mdlsq;
using mdlsq::md::mdreal;

namespace {

// The ladder factors at `low` limbs and refines up to NH.
template <int NH>
core::AdaptiveLsqResult<NH> refine_from(
    int low, const blas::Matrix<mdreal<NH>>& a,
    const blas::Vector<mdreal<NH>>& b, double tol, int tile) {
  core::AdaptiveOptions opt;
  opt.rungs = {low, NH};
  opt.tol = tol;
  opt.tile = tile;
  return core::adaptive_least_squares<NH>(device::volta_v100(), a, b, opt);
}

template <int NH>
double worst_error(const blas::Vector<mdreal<NH>>& x,
                   const blas::Vector<mdreal<NH>>& want) {
  double w = 0;
  for (std::size_t i = 0; i < x.size(); ++i)
    w = std::max(w, std::fabs((x[i] - want[i]).to_double()));
  return w;
}

// Every correction solve the ladder ran, on either rung.
template <int NH>
int corrections(const core::AdaptiveLsqResult<NH>& res) {
  int n = 0;
  for (const auto& rs : res.rungs) n += rs.refine_iterations;
  return n;
}

// The high rung refined on the low rung's factors: no refactorization,
// launches priced at the factor precision.
template <int NH>
void expect_refined_on_low_factors(const core::AdaptiveLsqResult<NH>& res,
                                   int low) {
  ASSERT_EQ(res.rungs.size(), 2u);
  EXPECT_TRUE(res.rungs[0].refactorized);
  EXPECT_EQ(res.rungs[0].precision, md::Precision(low));
  EXPECT_FALSE(res.rungs[1].refactorized);
  EXPECT_EQ(res.rungs[1].precision, md::Precision(NH));
  EXPECT_EQ(res.rungs[1].device_precision, md::Precision(low));
}

}  // namespace
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
  const double tol = 1e-58;
  auto res = refine_from<4>(2, a, b, tol, 8);
  EXPECT_TRUE(res.converged);
  expect_refined_on_low_factors(res, 2);
  EXPECT_LE(worst_error(res.x, want), 1e5 * mdreal<4>::eps());
  // Each correction gains roughly the low precision's digits: from a dd
  // factorization, qd accuracy needs only a couple of them, counting the
  // low rung's own sweeps.
  EXPECT_LE(corrections(res), 6);
}

TEST(Refinement, ReachesOctoDoubleFromQuadDouble) {
  std::mt19937_64 gen(404);
  auto a = blas::random_matrix<mdreal<8>>(12, 12, gen);
  auto want = blas::random_vector<mdreal<8>>(12, gen);
  auto b = blas::gemv(a, std::span<const mdreal<8>>(want));
  auto res = refine_from<8>(4, a, b, 1e-118, 4);
  EXPECT_TRUE(res.converged);
  expect_refined_on_low_factors(res, 4);
  EXPECT_LE(worst_error(res.x, want), 1e6 * mdreal<8>::eps());
  EXPECT_LE(corrections(res), 6);
}

TEST(Refinement, OverdeterminedConsistentSystems) {
  // With b in range(A), x-only refinement converges to full precision
  // also in the overdetermined case.
  std::mt19937_64 gen(405);
  auto a = blas::random_matrix<mdreal<4>>(40, 16, gen);
  auto want = blas::random_vector<mdreal<4>>(16, gen);
  auto b = blas::gemv(a, std::span<const mdreal<4>>(want));
  auto res = refine_from<4>(2, a, b, 1e-58, 8);
  EXPECT_TRUE(res.converged);
  expect_refined_on_low_factors(res, 2);
  EXPECT_LE(worst_error(res.x, want), 1e6 * mdreal<4>::eps());
}

TEST(Refinement, InconsistentSystemsStallAtLowPrecisionGradient) {
  // Classical limitation (Bjorck): refining x alone on an INCONSISTENT
  // least-squares problem cannot push the gradient A^T(b - Ax) below the
  // level set by the low-precision factors; full-precision convergence
  // needs the augmented-system formulation.  The high rung must stop on
  // its stagnation guard, before the iteration cap, and still deliver
  // dd-level optimality.
  std::mt19937_64 gen(406);
  auto a = blas::random_matrix<mdreal<4>>(40, 16, gen);
  auto b = blas::random_vector<mdreal<4>>(40, gen);  // not in range(A)
  auto res = refine_from<4>(2, a, b, 1e-58, 8);
  EXPECT_FALSE(res.converged);
  expect_refined_on_low_factors(res, 2);
  EXPECT_LT(res.rungs[1].refine_iterations, core::refine_iter_cap);
  auto ax = blas::gemv(a, std::span<const mdreal<4>>(res.x));
  blas::Vector<mdreal<4>> r(40);
  for (int i = 0; i < 40; ++i) r[i] = b[i] - ax[i];
  auto g = blas::gemv_adjoint(a, std::span<const mdreal<4>>(r));
  EXPECT_LE(blas::norm_inf(std::span<const mdreal<4>>(g)).to_double(),
            1e3 * mdreal<2>::eps());
}

TEST(Refinement, RefactorizesWhenTheLowFactorsCannotContract) {
  // A Hilbert block of dimension 14 has condition ~ 2e19 < 1/eps(dd)
  // but ~1e36 at 24: beyond the dd factors' reach (cond * eps(dd) > 1e-2),
  // so the qd rung refactorizes instead of refining on them.
  const int n = 24;
  blas::Matrix<mdreal<4>> h(n, n);
  for (int i = 0; i < n; ++i)
    for (int j = 0; j < n; ++j)
      h(i, j) = mdreal<4>(1.0) / mdreal<4>(double(i + j + 1));
  blas::Vector<mdreal<4>> ones(n, mdreal<4>(1.0));
  auto b = blas::gemv(h, std::span<const mdreal<4>>(ones));
  auto res = refine_from<4>(2, h, b, 1e-20, 8);
  ASSERT_EQ(res.rungs.size(), 2u);
  EXPECT_GT(res.rungs[0].cond_estimate * core::detail::eps_of_limbs(2), 1e-2);
  EXPECT_TRUE(res.rungs[1].refactorized);
  EXPECT_EQ(res.rungs[1].device_precision, md::Precision::d4);
  EXPECT_TRUE(res.converged);
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
