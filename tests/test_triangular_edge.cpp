// Edge cases of the triangular solvers (host and tiled device variants):
// 1x1 systems, exactly-singular triangulars caught by the zero-pivot
// probe, and severely ill-conditioned diagonals — at double double, quad
// double and octo double precision.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "blas/generate.hpp"
#include "core/back_substitution.hpp"
#include "core/tiled_back_sub.hpp"
#include "support/test_support.hpp"

using namespace mdlsq;
using mdlsq::md::mdreal;
using test_support::make_dev;
using test_support::random_lower;

template <class T>
class TriangularEdgeTest : public ::testing::Test {};

using Precisions = ::testing::Types<mdreal<2>, mdreal<4>, mdreal<8>>;
TYPED_TEST_SUITE(TriangularEdgeTest, Precisions);

TYPED_TEST(TriangularEdgeTest, OneByOneSystems) {
  using T = TypeParam;
  blas::Matrix<T> u(1, 1);
  u(0, 0) = T(4.0);
  blas::Vector<T> b{T(10.0)};

  auto xb = core::back_substitute(u, std::span<const T>(b));
  ASSERT_EQ(xb.size(), 1u);
  EXPECT_EQ(xb[0].to_double(), 2.5);

  // The tiled device variant degenerates to the same 1x1 solve.
  auto dev_b = make_dev<T>(device::ExecMode::functional);
  auto tb = core::tiled_back_sub(dev_b, u, b, 1, 1);
  ASSERT_EQ(tb.size(), 1u);
  EXPECT_EQ(tb[0].to_double(), 2.5);
}

TYPED_TEST(TriangularEdgeTest, ZeroPivotIsDetectedExactly) {
  using T = TypeParam;
  std::mt19937_64 gen(33);
  auto u = blas::random_upper_triangular<T>(6, gen);
  EXPECT_EQ(core::zero_pivot_index(u), -1);

  u(3, 3) = T(0.0);
  EXPECT_EQ(core::zero_pivot_index(u), 3);

  // A pivot that is merely tiny is NOT flagged: the probe is exact.
  u(3, 3) = T(std::ldexp(1.0, -1000));
  EXPECT_EQ(core::zero_pivot_index(u), -1);

  auto l = random_lower<T>(5, gen);
  l(0, 0) = T(0.0);
  EXPECT_EQ(core::zero_pivot_index(l), 0);
}

TYPED_TEST(TriangularEdgeTest, SingularBackSubstitutionYieldsNonFinite) {
  using T = TypeParam;
  std::mt19937_64 gen(34);
  auto u = blas::random_upper_triangular<T>(4, gen);
  u(2, 2) = T(0.0);
  blas::Vector<T> b = blas::random_vector<T>(4, gen);
  auto x = core::back_substitute(u, std::span<const T>(b));
  // The division by the zero pivot poisons x[2]; entries above it consume
  // the non-finite value.
  EXPECT_FALSE(x[2].isfinite());
}

// A diagonal spanning 60 binary orders per step is far beyond double
// precision conditioning, but the solves divide by exact powers of two,
// so every precision must recover the solution limb-exactly.
TYPED_TEST(TriangularEdgeTest, PowerOfTwoGradedDiagonalSolvesExactly) {
  using T = TypeParam;
  const int n = 8;
  blas::Matrix<T> u(n, n);
  blas::Vector<T> b(n), want(n);
  for (int i = 0; i < n; ++i) {
    const double d = std::ldexp(1.0, -60 * i);  // cond_2 = 2^420
    u(i, i) = T(d);
    want[i] = T(i + 1.0);
    b[i] = T(d * (i + 1.0));  // exact: scaling by powers of two
  }
  auto xb = core::back_substitute(u, std::span<const T>(b));
  for (int i = 0; i < n; ++i)
    EXPECT_TRUE(xb[i] == want[i]) << "back, row " << i;

  // The tiled device path hits the same values through the
  // invert-and-multiply stages.
  auto dev = make_dev<T>(device::ExecMode::functional);
  auto tb = core::tiled_back_sub(dev, u, b, 2, 4);
  for (int i = 0; i < n; ++i)
    EXPECT_LE(test_support::mag(tb[i] - want[i]),
              test_support::tol(tb[i], want[i], 16.0));
}

// Severely ill-conditioned triangular (graded diagonal with unit upper
// band): the residual-relative error must stay within kappa * O(n * eps).
TYPED_TEST(TriangularEdgeTest, IllConditionedTriangularStaysWithinKappaBound) {
  using T = TypeParam;
  const int n = 8;
  const int grade = 6;  // diag_i = 2^(-6i): kappa ~ 2^42
  blas::Matrix<T> u(n, n);
  blas::Vector<T> want(n);
  std::mt19937_64 gen(36);
  for (int i = 0; i < n; ++i) {
    u(i, i) = T(std::ldexp(1.0, -grade * i));
    for (int j = i + 1; j < n; ++j)
      u(i, j) = md::random_uniform<T::limbs>(gen);
    want[i] = T((i % 3) - 1.0);
  }
  auto b = blas::gemv(u, std::span<const T>(want));
  auto x = core::back_substitute(u, std::span<const T>(b));
  const double kappa = std::ldexp(1.0, grade * (n - 1));
  for (int i = 0; i < n; ++i)
    EXPECT_LE(test_support::mag(x[i] - want[i]),
              kappa * 64.0 * n * T::eps())
        << "row " << i;
}
