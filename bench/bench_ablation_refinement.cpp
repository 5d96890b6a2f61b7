// Ablation: direct high-precision solving versus mixed-precision
// iterative refinement (factor once in the cheap format, correct with
// high-precision residuals).  Two views:
//   * real host CPU wall time of the functional solvers — least_squares
//     at d4 against the adaptive ladder with rungs {2, 4}, which factors
//     at d2 and refines at d4 on the resident d2 factors, and
//   * modeled device cost: one 4d QR versus one 2d QR plus a handful of
//     residual/correction sweeps (O(n^2) each), using the Table 1 / device
//     model pricing at the paper's dimension 1024.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <random>

#include "bench_util.hpp"
#include "blas/generate.hpp"
#include "core/adaptive_lsq.hpp"

using namespace mdlsq;
using Clock = std::chrono::steady_clock;

namespace {
double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
double max_error(const blas::Vector<md::mdreal<4>>& x,
                 const blas::Vector<md::mdreal<4>>& want) {
  double e = 0;
  for (std::size_t i = 0; i < x.size(); ++i)
    e = std::max(e, std::fabs((x[i] - want[i]).to_double()));
  return e;
}
}  // namespace

int main() {
  bench::header("Ablation: direct high precision vs mixed-precision refinement");

  // --- real CPU wall time at a host-friendly dimension -------------------
  const int n = 48, host_tile = 8;
  std::mt19937_64 gen(77);
  auto a = blas::random_matrix<md::mdreal<4>>(n, n, gen);
  auto want = blas::random_vector<md::mdreal<4>>(n, gen);
  auto b = blas::gemv(a, std::span<const md::mdreal<4>>(want));

  auto t0 = Clock::now();
  device::Device dev(device::volta_v100(), md::Precision::d4,
                     device::ExecMode::functional);
  const auto xd = core::least_squares(dev, a, b, host_tile).x;
  const double t_direct = seconds_since(t0);

  core::AdaptiveOptions opt;
  opt.rungs = {2, 4};
  opt.tol = 1e-58;
  opt.tile = host_tile;
  t0 = Clock::now();
  auto refined =
      core::adaptive_least_squares<4>(device::volta_v100(), a, b, opt);
  const double t_refined = seconds_since(t0);
  int refinements = 0;
  for (const auto& r : refined.rungs) refinements += r.refine_iterations;

  std::printf("host CPU, dim %d, target quad double:\n", n);
  std::printf("  direct 4d QR solve:      %7.3f s   max err %.2e\n",
              t_direct, max_error(xd, want));
  std::printf("  2d QR + %d refinements:  %7.3f s   max err %.2e  (%.1fx)%s\n",
              refinements, t_refined, max_error(refined.x, want),
              t_direct / t_refined, refined.converged ? "" : "  unconverged");

  // --- modeled device cost at the paper's dimension ----------------------
  const int dim = 1024, tile = 128;
  auto direct4 = bench::lsq_dry(device::volta_v100(), md::Precision::d4, dim,
                                tile);
  auto factor2 = bench::lsq_dry(device::volta_v100(), md::Precision::d2, dim,
                                tile);
  // Each refinement sweep: one high-precision residual gemv (2 dim^2
  // fma) plus one low-precision triangular solve (Q^H b + back subst,
  // ~1.5 dim^2 fma) — price both with the kernel model.
  using mdlsq::core::operator*;
  md::OpTally sweep_hi = md::OpTally{.add = 1, .mul = 1} *
                         (2LL * dim * dim);
  md::OpTally sweep_lo = md::OpTally{.add = 1, .mul = 1} *
                         (3LL * dim * dim / 2);
  const int sweeps = 3;
  const double t_hi = device::kernel_time_ms(device::volta_v100(),
                                             md::Precision::d4, sweep_hi, 0,
                                             dim * dim / tile, tile) * sweeps;
  const double t_lo = device::kernel_time_ms(device::volta_v100(),
                                             md::Precision::d2, sweep_lo, 0,
                                             dim * dim / tile, tile) * sweeps;
  const double refine_total = factor2.dev.kernel_ms() + t_hi + t_lo;
  std::printf("\nmodeled V100, dim %d, target quad double:\n", dim);
  std::printf("  direct 4d solver:        %8.1f ms\n",
              direct4.dev.kernel_ms());
  std::printf("  2d factor + %d sweeps:    %8.1f ms  (%.1fx cheaper)\n",
              sweeps, refine_total, direct4.dev.kernel_ms() / refine_total);
  std::printf(
      "\nrefinement wins whenever kappa(A) fits in double double; the\n"
      "ladder refactorizes at d4 when it does not (core/ladder.hpp).\n");
  return 0;
}
