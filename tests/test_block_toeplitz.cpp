// Lower triangular block Toeplitz power-series solver, factored and
// solved through the device pipeline: exact reconstruction against dense
// solves, banded structure, precision dependence of the coefficient error
// with series order (the paper's §1.1 motivation), complex data, and the
// dry-run price of the schedule.
#include <gtest/gtest.h>

#include <random>

#include "blas/generate.hpp"
#include "blas/norms.hpp"
#include "core/block_toeplitz.hpp"
#include "support/test_support.hpp"

using namespace mdlsq;
using mdlsq::md::mdreal;
using test_support::make_dev;

namespace {

// Factors the blocks on a fresh functional device and solves the series,
// with one tile spanning the block: the blocked QR then runs one panel,
// the unblocked Householder factorization.
template <class T>
std::vector<blas::Vector<T>> device_series(
    const std::vector<blas::Matrix<T>>& blocks,
    const std::vector<blas::Vector<T>>& rhs) {
  const int tile = blocks[0].rows();
  auto dev = make_dev<T>(device::ExecMode::functional);
  core::BlockToeplitzSolver<T> solver(dev, blocks, tile);
  return solver.solve_on(dev, rhs, tile);
}

// Builds the full (K+1)m x (K+1)m lower block Toeplitz matrix and checks
// the residual of the block solution.
template <class T>
double toeplitz_residual(const std::vector<blas::Matrix<T>>& blocks,
                         const std::vector<blas::Vector<T>>& rhs,
                         const std::vector<blas::Vector<T>>& x) {
  const int m = blocks[0].rows();
  const int k1 = static_cast<int>(rhs.size());
  double worst = 0;
  for (int bi = 0; bi < k1; ++bi) {
    for (int r = 0; r < m; ++r) {
      T s{};
      for (int bj = 0; bj <= bi; ++bj) {
        const int d = bi - bj;
        if (d >= static_cast<int>(blocks.size())) continue;
        for (int c = 0; c < m; ++c) s += blocks[d](r, c) * x[bj][c];
      }
      worst = std::max(worst,
                       blas::abs_of(s - rhs[bi][r]).to_double());
    }
  }
  return worst;
}
}  // namespace

TEST(BlockToeplitz, SolvesRandomSeries) {
  using T = mdreal<4>;
  std::mt19937_64 gen(501);
  const int m = 8, band = 3, orders = 10;
  std::vector<blas::Matrix<T>> blocks;
  for (int j = 0; j < band; ++j)
    blocks.push_back(blas::random_matrix<T>(m, m, gen));
  std::vector<blas::Vector<T>> rhs;
  for (int k = 0; k < orders; ++k)
    rhs.push_back(blas::random_vector<T>(m, gen));

  auto dev = make_dev<T>(device::ExecMode::functional);
  core::BlockToeplitzSolver<T> solver(dev, blocks, m);
  EXPECT_EQ(solver.block_dim(), m);
  EXPECT_EQ(solver.bandwidth(), band);
  auto x = solver.solve_on(dev, rhs, m);
  ASSERT_EQ(x.size(), rhs.size());
  EXPECT_LE(toeplitz_residual(blocks, rhs, x), 1e-50);
}

TEST(BlockToeplitz, SingleBlockIsPlainSolve) {
  using T = mdreal<2>;
  std::mt19937_64 gen(502);
  const int m = 6;
  std::vector<blas::Matrix<T>> blocks{blas::random_matrix<T>(m, m, gen)};
  auto want = blas::random_vector<T>(m, gen);
  auto b = blas::gemv(blocks[0], std::span<const T>(want));
  auto x = device_series<T>(blocks, {b});
  for (int i = 0; i < m; ++i)
    EXPECT_LE(blas::abs_of(x[0][i] - want[i]).to_double(), 1e-26);
}

TEST(BlockToeplitz, RecoversKnownSeries) {
  // Known geometric solution x_k = v/2^k with A(t) = T0 + T1 t, rhs
  // formed exactly; check recovery across orders.
  using T = mdreal<4>;
  std::mt19937_64 gen(503);
  const int m = 6, orders = 16;
  std::vector<blas::Matrix<T>> blocks{blas::random_matrix<T>(m, m, gen),
                                      blas::random_matrix<T>(m, m, gen)};
  auto v = blas::random_vector<T>(m, gen);
  std::vector<blas::Vector<T>> xstar(orders), rhs(orders);
  for (int k = 0; k < orders; ++k) {
    xstar[k] = v;
    for (auto& e : xstar[k]) e = ldexp(e, -k);
    rhs[k] = blas::gemv(blocks[0], std::span<const T>(xstar[k]));
    if (k > 0) {
      auto t = blas::gemv(blocks[1], std::span<const T>(xstar[k - 1]));
      for (int i = 0; i < m; ++i) rhs[k][i] += t[i];
    }
  }
  auto x = device_series<T>(blocks, rhs);
  // Round-off is amplified order by order by the recursion (the very
  // effect that motivates extended precision): allow a growth factor per
  // order on top of the quad double eps, and require tight recovery for
  // the early orders.
  for (int k = 0; k < orders; ++k) {
    const double tol = k < 8 ? 1e-50 : 1e-33;
    for (int i = 0; i < m; ++i)
      EXPECT_LE(blas::abs_of(x[k][i] - xstar[k][i]).to_double(), tol)
          << "order " << k;
  }
}

TEST(BlockToeplitz, ErrorGrowsWithOrderFasterInLowerPrecision) {
  // The §1.1 motivation quantified: the ratio of final-order coefficient
  // errors between double and quad double must be astronomically large.
  auto run = [](auto tag) {
    using T = decltype(tag);
    std::mt19937_64 gen(504);
    const int m = 8, orders = 20;
    std::vector<blas::Matrix<T>> blocks{blas::random_matrix<T>(m, m, gen),
                                        blas::random_matrix<T>(m, m, gen)};
    auto v = blas::random_vector<T>(m, gen);
    std::vector<blas::Vector<T>> xstar(orders), rhs(orders);
    for (int k = 0; k < orders; ++k) {
      xstar[k] = v;
      for (auto& e : xstar[k]) e = ldexp(e, -k);
      rhs[k] = blas::gemv(blocks[0], std::span<const T>(xstar[k]));
      if (k > 0) {
        auto t = blas::gemv(blocks[1], std::span<const T>(xstar[k - 1]));
        for (int i = 0; i < m; ++i) rhs[k][i] += t[i];
      }
    }
    auto x = device_series<T>(blocks, rhs);
    double worst = 0;
    for (int i = 0; i < m; ++i)
      worst = std::max(
          worst,
          std::fabs((x[orders - 1][i] - xstar[orders - 1][i]).to_double()) /
              std::max(1e-300,
                       std::fabs(xstar[orders - 1][i].to_double())));
    return worst;
  };
  const double e1 = run(mdreal<1>{});
  const double e2 = run(mdreal<2>{});
  EXPECT_GT(e1, e2 * 1e6);
  EXPECT_LT(e2, 1e-12);
}

TEST(BlockToeplitz, ValidatesInputWithThrownErrors) {
  using T = mdreal<2>;
  std::mt19937_64 gen(506);
  const int m = 4;
  std::vector<blas::Matrix<T>> blocks{blas::random_matrix<T>(m, m, gen)};

  auto dev = make_dev<T>(device::ExecMode::functional);
  EXPECT_THROW(core::BlockToeplitzSolver<T>(dev, {}, 2),
               std::invalid_argument);
  EXPECT_THROW(core::BlockToeplitzSolver<T>(
                   dev, {blas::random_matrix<T>(m, m, gen),
                         blas::random_matrix<T>(m + 1, m + 1, gen)},
                   2),
               std::invalid_argument);

  core::BlockToeplitzSolver<T> solver(dev, blocks, 2);
  EXPECT_THROW(solver.solve_on(dev, {blas::random_vector<T>(m + 1, gen)}, 2),
               std::invalid_argument);
  const auto short_r = blas::random_vector<T>(m - 1, gen);
  EXPECT_THROW(solver.solve_diag_on(dev, std::span<const T>(short_r), 2),
               std::invalid_argument);

  // The tile must divide the block dimension, and the factorizing
  // constructor needs a functional device.
  EXPECT_THROW(core::BlockToeplitzSolver<T>(dev, blocks, 3),
               std::invalid_argument);
  device::Device dry(device::volta_v100(), md::Precision::d2,
                     device::ExecMode::dry_run);
  EXPECT_THROW(core::BlockToeplitzSolver<T>(dry, blocks, 2),
               std::invalid_argument);
}

TEST(BlockToeplitz, DeviceSolveAndDryRunPriceTheSameSchedule) {
  using T = mdreal<2>;
  std::mt19937_64 gen(508);
  const int m = 8, band = 3, orders = 6, tile = 4;
  std::vector<blas::Matrix<T>> blocks;
  for (int j = 0; j < band; ++j) {
    blocks.push_back(blas::random_matrix<T>(m, m, gen));
    if (j == 0)
      for (int i = 0; i < m; ++i) blocks[0](i, i) += T(4.0);
  }
  std::vector<blas::Vector<T>> rhs;
  for (int k = 0; k < orders; ++k)
    rhs.push_back(blas::random_vector<T>(m, gen));

  device::Device dev(device::volta_v100(), md::Precision::d2,
                     device::ExecMode::functional);
  core::BlockToeplitzSolver<T> dslv(dev, blocks, tile);
  auto xd = dslv.solve_on(dev, rhs, tile);
  ASSERT_EQ(xd.size(), rhs.size());
  EXPECT_LE(toeplitz_residual(blocks, rhs, xd), 1e-26);

  // Exact tallies per stage, and the dry run walks the identical
  // schedule: same analytic totals, launches, kernel milliseconds, and
  // the same transfers (T_0 in, residuals in and corrections out — no
  // factor is unstaged).
  for (const auto& s : dev.stages())
    EXPECT_TRUE(s.measured == s.analytic) << "stage " << s.name;
  device::Device dry(device::volta_v100(), md::Precision::d2,
                     device::ExecMode::dry_run);
  core::BlockToeplitzSolver<T>::factor_dry(dry, m, tile);
  core::BlockToeplitzSolver<T>::solve_series_dry(dry, m, band, orders, tile);
  EXPECT_TRUE(dry.analytic_total() == dev.analytic_total());
  EXPECT_DOUBLE_EQ(dry.kernel_ms(), dev.kernel_ms());
  EXPECT_DOUBLE_EQ(dry.wall_ms(), dev.wall_ms());
  EXPECT_EQ(dry.launches(), dev.launches());
}

TEST(BlockToeplitz, ComplexData) {
  using Z = md::dd_complex;
  std::mt19937_64 gen(505);
  const int m = 5;
  std::vector<blas::Matrix<Z>> blocks{blas::random_matrix<Z>(m, m, gen),
                                      blas::random_matrix<Z>(m, m, gen)};
  std::vector<blas::Vector<Z>> rhs;
  for (int k = 0; k < 6; ++k) rhs.push_back(blas::random_vector<Z>(m, gen));
  auto x = device_series<Z>(blocks, rhs);
  EXPECT_LE(toeplitz_residual(blocks, rhs, x), 1e-26);
}
