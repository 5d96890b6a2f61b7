// Cross-module integration scenarios: the same system solved at every
// precision must agree along the eps ladder; seeds sweeps assert the
// solver is correct for arbitrary well-conditioned inputs; cross-device
// model invariants hold for whole experiments, not just single kernels.
#include <gtest/gtest.h>

#include <random>

#include "blas/generate.hpp"
#include "blas/norms.hpp"
#include "core/least_squares.hpp"
#include "core/back_substitution.hpp"
#include "core/adaptive_lsq.hpp"

using namespace mdlsq;
using mdlsq::md::mdreal;

namespace {
// Builds the same (seeded) system at a given precision via exact
// promotion of double-double data, so all precisions solve the SAME
// mathematical problem.
template <int N>
void build_system(int m, int c, unsigned seed, blas::Matrix<mdreal<N>>& a,
                  blas::Vector<mdreal<N>>& b) {
  std::mt19937_64 gen(seed);
  auto a2 = blas::random_matrix<mdreal<2>>(m, c, gen);
  auto b2 = blas::random_vector<mdreal<2>>(m, gen);
  a = blas::Matrix<mdreal<N>>(m, c);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < c; ++j)
      a(i, j) = a2(i, j).template to_precision<N>();
  b.resize(m);
  for (int i = 0; i < m; ++i) b[i] = b2[i].template to_precision<N>();
}

template <int N>
blas::Vector<mdreal<N>> solve_at(int m, int c, unsigned seed) {
  blas::Matrix<mdreal<N>> a;
  blas::Vector<mdreal<N>> b;
  build_system<N>(m, c, seed, a, b);
  device::Device dev(device::volta_v100(), md::Precision(N),
                     device::ExecMode::functional);
  return core::least_squares(dev, a, b, c / 2).x;
}
}  // namespace

TEST(Integration, PrecisionLadderOnOneSystem) {
  const int m = 24, c = 16;
  auto x2 = solve_at<2>(m, c, 9001);
  auto x4 = solve_at<4>(m, c, 9001);
  auto x8 = solve_at<8>(m, c, 9001);
  // 4d refines 2d at the dd level; 8d refines 4d at the qd level.
  for (int i = 0; i < c; ++i) {
    EXPECT_LE(std::fabs((x2[i].to_precision<4>() - x4[i]).to_double()),
              1e5 * mdreal<2>::eps());
    EXPECT_LE(std::fabs((x4[i].to_precision<8>() - x8[i]).to_double()),
              1e5 * mdreal<4>::eps());
  }
}

TEST(Integration, RefinementMatchesDirectHighPrecision) {
  const int m = 20, c = 20;
  blas::Matrix<mdreal<4>> a;
  blas::Vector<mdreal<4>> b;
  build_system<4>(m, c, 9002, a, b);
  device::Device dev(device::volta_v100(), md::Precision::d4,
                     device::ExecMode::functional);
  auto direct = core::least_squares(dev, a, b, 10).x;
  // Factor at d2, refine at d4: the ladder as the refinement driver.
  core::AdaptiveOptions opt;
  opt.rungs = {2, 4};
  opt.tol = 1e-58;
  opt.tile = 10;
  auto refined =
      core::adaptive_least_squares<4>(device::volta_v100(), a, b, opt);
  ASSERT_TRUE(refined.converged);
  ASSERT_EQ(refined.rungs.size(), 2u);
  EXPECT_FALSE(refined.rungs[1].refactorized);
  for (int i = 0; i < c; ++i)
    EXPECT_LE(std::fabs((direct[i] - refined.x[i]).to_double()),
              1e6 * mdreal<4>::eps());
}

// Seed sweep: property-style check that the device pipeline solves
// arbitrary seeded systems to working precision.
class LsqSeedSweep : public ::testing::TestWithParam<unsigned> {};

TEST_P(LsqSeedSweep, OptimalityHolds) {
  using T = mdreal<2>;
  const unsigned seed = GetParam();
  std::mt19937_64 gen(seed);
  const int m = 36, c = 24;
  auto a = blas::random_matrix<T>(m, c, gen);
  auto b = blas::random_vector<T>(m, gen);
  device::Device dev(device::volta_v100(), md::Precision::d2,
                     device::ExecMode::functional);
  auto x = core::least_squares(dev, a, b, 12).x;
  auto ax = blas::gemv(a, std::span<const T>(x));
  blas::Vector<T> r(m);
  for (int i = 0; i < m; ++i) r[i] = b[i] - ax[i];
  auto g = blas::gemv_adjoint(a, std::span<const T>(r));
  EXPECT_LE(blas::norm_inf(std::span<const T>(g)).to_double(),
            1e5 * T::eps());
  // Tally exactness must hold for every seed, not just the smoke inputs.
  EXPECT_TRUE(dev.measured_total() == dev.analytic_total());
}

INSTANTIATE_TEST_SUITE_P(Seeds, LsqSeedSweep,
                         ::testing::Values(11u, 23u, 37u, 59u, 71u, 97u,
                                           131u, 977u),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

// Cross-device invariants of whole experiments under the frozen model.
TEST(Integration, DeviceOrderingHoldsForWholeExperiments) {
  auto t = [](const device::DeviceSpec& d) {
    device::Device dev(d, md::Precision::d4, device::ExecMode::dry_run);
    // dim 1024: the compute-dominated regime where the paper compares
    // the devices (at small dimensions the higher-clocked C2050 can
    // out-run the K20C's latency-bound kernels).
    core::least_squares_dry<mdreal<4>>(dev, 1024, 1024, 128);
    return dev.kernel_ms();
  };
  const double v100 = t(device::volta_v100());
  const double p100 = t(device::pascal_p100());
  const double k20c = t(device::kepler_k20c());
  const double c2050 = t(device::tesla_c2050());
  const double rtx = t(device::geforce_rtx2080());
  EXPECT_LT(v100, p100);
  EXPECT_LT(p100, k20c);
  EXPECT_LT(k20c, c2050);
  EXPECT_LT(p100, rtx);  // full-rate FP64 beats the consumer part
}

TEST(Integration, ModelIsDeterministic) {
  auto run = [] {
    device::Device dev(device::volta_v100(), md::Precision::d8,
                       device::ExecMode::dry_run);
    core::least_squares_dry<mdreal<8>>(dev, 256, 256, 32);
    return dev.kernel_ms();
  };
  EXPECT_DOUBLE_EQ(run(), run());
}
