// The adaptive precision ladder: the triangular condition estimator and
// its exact operation tally, the shared ladder policy (core/ladder.hpp)
// driven by scripted residual sequences, rung-by-rung escalation behavior
// on the Hilbert-like family (refine vs refactorize), the acceptance pin
// — a 1e-25 tolerance met from a d2 start at modeled cost strictly below
// an always-d8 direct solve, priced with dry-run tallies —
// non-finite input that must never come back converged, dry-run ladder
// pricing, the conformance sweep, and the batched adaptive pipeline
// (bit-identical to sequential adaptive solves, tally conservation with
// mixed per-problem rungs, per-rung report rows).
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "blas/condition.hpp"
#include "blas/generate.hpp"
#include "blas/norms.hpp"
#include "core/adaptive_lsq.hpp"
#include "core/batched_lsq.hpp"
#include "core/ladder.hpp"
#include "support/conformance.hpp"
#include "support/test_support.hpp"

using namespace mdlsq;
using core::AdaptiveOptions;
using core::BatchedLsqOptions;
using core::BatchPipeline;
using core::BatchProblem;
using core::DevicePool;
using core::ShardPolicy;
using test_support::check_adaptive_conformance;
using test_support::shape_sweep;

namespace {

// The Hilbert-like family of examples/precision_sweep with the known
// all-ones solution.
template <int NH>
std::pair<blas::Matrix<md::mdreal<NH>>, blas::Vector<md::mdreal<NH>>>
hilbert_problem(int rows, int cols) {
  auto a = blas::hilbert_like<md::mdreal<NH>>(rows, cols);
  blas::Vector<md::mdreal<NH>> ones(cols, md::mdreal<NH>(1.0));
  auto b = blas::gemv(a, std::span<const md::mdreal<NH>>(ones));
  return {std::move(a), std::move(b)};
}

template <int NH>
double worst_vs_ones(const blas::Vector<md::mdreal<NH>>& x) {
  double w = 0;
  for (const auto& xi : x)
    w = std::max(w, std::fabs((xi - md::mdreal<NH>(1.0)).to_double()));
  return w;
}

// Modeled kernel time of an always-d8 direct solve, from dry-run tallies.
double always_d8_kernel_ms(int rows, int cols, int tile) {
  device::Device dev(device::volta_v100(), md::Precision::d8,
                     device::ExecMode::dry_run);
  core::least_squares_dry<md::od_real>(dev, rows, cols, tile);
  return dev.kernel_ms();
}

}  // namespace

// --- the condition estimator -----------------------------------------------

TEST(TriCondition, IdentityHasConditionOne) {
  blas::Matrix<md::dd_real> r = blas::Matrix<md::dd_real>::identity(8);
  auto est = blas::tri_condition_inf(r, 8);
  EXPECT_NEAR(est.cond, 1.0, 1e-12);
  EXPECT_EQ(est.zero_pivot, -1);
}

TEST(TriCondition, DiagonalConditionIsExact) {
  const int n = 6;
  blas::Matrix<md::qd_real> r(n, n);
  for (int i = 0; i < n; ++i)
    r(i, i) = md::qd_real(std::pow(10.0, -double(i)));  // 1 .. 1e-5
  auto est = blas::tri_condition_inf(r, n);
  EXPECT_NEAR(est.norm, 1.0, 1e-12);
  EXPECT_NEAR(est.cond / 1e5, 1.0, 1e-9);
}

TEST(TriCondition, ZeroPivotReportsInfinity) {
  std::mt19937_64 gen(11);
  auto r = blas::random_upper_triangular<md::dd_real>(6, gen);
  r(3, 3) = md::dd_real(0.0);
  auto est = blas::tri_condition_inf(r, 6);
  EXPECT_EQ(est.zero_pivot, 3);
  EXPECT_TRUE(std::isinf(est.cond));
}

TEST(TriCondition, EstimateBracketsTrueCondition) {
  // The estimate is a lower bound of kappa_inf (up to rounding) and, on
  // well-conditioned random triangulars, lands within a small factor.
  std::mt19937_64 gen(12);
  for (int trial = 0; trial < 4; ++trial) {
    const int n = 10 + 4 * trial;
    auto r = blas::random_upper_triangular<md::qd_real>(n, gen);
    auto est = blas::tri_condition_inf(r, n);

    // True kappa_inf via n explicit triangular solves.
    double inv_norm = 0.0;
    blas::Matrix<md::qd_real> inv(n, n);
    for (int k = 0; k < n; ++k) {
      blas::Vector<md::qd_real> e(n);
      e[k] = md::qd_real(1.0);
      auto col = core::back_substitute(r, std::span<const md::qd_real>(e));
      for (int i = 0; i < n; ++i) inv(i, k) = col[i];
    }
    inv_norm = blas::norm_inf_mat(inv).to_double();
    const double truth = blas::norm_inf_mat(r).to_double() * inv_norm;

    EXPECT_LE(est.cond, truth * 1.01) << "not a lower bound, n=" << n;
    EXPECT_GE(est.cond, truth * 0.01) << "too loose, n=" << n;
  }
}

class TriConditionTally : public test_support::ScopedTallyTest {};

TEST_F(TriConditionTally, OperationCountMatchesDeclaredFormula) {
  std::mt19937_64 gen(13);
  for (int n : {1, 2, 5, 12}) {
    auto r = blas::random_upper_triangular<md::dd_real>(n, gen);
    md::OpTally t;
    {
      md::ScopedTally scope(t);
      blas::tri_condition_inf(r, n);
    }
    EXPECT_TRUE(t == blas::tri_condition_ops(n)) << "n=" << n;
  }
}

TEST_F(TriConditionTally, CountIsDataIndependentEvenOnZeroPivots) {
  // The "cond est" device launch declares tri_condition_ops(n) up front,
  // so rank-deficient input must execute exactly the same operation count
  // (the solves run on infinities rather than bailing out).
  std::mt19937_64 gen(14);
  auto r = blas::random_upper_triangular<md::dd_real>(9, gen);
  r(4, 4) = md::dd_real(0.0);
  md::OpTally t;
  blas::TriCondEstimate est;
  {
    md::ScopedTally scope(t);
    est = blas::tri_condition_inf(r, 9);
  }
  EXPECT_TRUE(t == blas::tri_condition_ops(9));
  EXPECT_EQ(est.zero_pivot, 4);
  EXPECT_TRUE(std::isinf(est.cond));
}

// --- the ladder policy -------------------------------------------------------

namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

// Drives core::refine_rung with a scripted sequence of (norm, scale)
// measurements; every correct() call advances the script by one entry.
struct ScriptedRung {
  explicit ScriptedRung(std::vector<core::ResidualNorm> s)
      : script(std::move(s)) {}

  std::vector<core::ResidualNorm> script;
  double tol = 1e-20, cond = 1.0, floor = 0.0;
  int max_iters = 12;
  int corrections = 0;
  util::RungStats rs;

  core::RungExit run() {
    return core::refine_rung(
        tol, cond, floor, max_iters, rs,
        [&] { return script.at(static_cast<std::size_t>(corrections)); },
        [&] { ++corrections; });
  }
};

}  // namespace

TEST(LadderPolicy, AcceptWinsOverFloorAndFloorOverStagnation) {
  // One measurement below both the tolerance and the floor: accepted.
  ScriptedRung both({{1e-30, 1.0}});
  both.floor = 1e-20;
  EXPECT_EQ(both.run(), core::RungExit::accepted);
  EXPECT_TRUE(both.rs.accepted);

  // Below the floor but not the tolerance: floor, no correction.
  ScriptedRung floor({{1e-30, 1.0}});
  floor.cond = 1e20;
  floor.floor = 1e-20;
  EXPECT_EQ(floor.run(), core::RungExit::floor);
  EXPECT_FALSE(floor.rs.accepted);
  EXPECT_EQ(floor.corrections, 0);

  // eta stopped halving (1.5e-21 > 2e-21 / 2) but sits below the floor:
  // floor wins.
  ScriptedRung slow({{2e-21, 1.0}, {1.5e-21, 1.0}});
  slow.cond = 1e20;
  slow.floor = 1.6e-21;
  slow.tol = 1e-3;
  EXPECT_EQ(slow.run(), core::RungExit::floor);
  EXPECT_EQ(slow.corrections, 1);
}

TEST(LadderPolicy, SlowContractionAndTheIterationCapStagnate) {
  // eta > prev / 2 stagnates.
  ScriptedRung slow({{1.0, 1.0}, {0.6, 1.0}});
  EXPECT_EQ(slow.run(), core::RungExit::stagnated);
  EXPECT_EQ(slow.corrections, 1);
  EXPECT_EQ(slow.rs.refine_iterations, 1);
  EXPECT_DOUBLE_EQ(slow.rs.backward_error, 0.6);

  // Exactly halving never stagnates on rate; the cap ends it after
  // max_iters corrections.
  ScriptedRung capped({{1.0, 1.0}, {0.5, 1.0}, {0.25, 1.0}, {0.125, 1.0}});
  capped.max_iters = 3;
  EXPECT_EQ(capped.run(), core::RungExit::stagnated);
  EXPECT_EQ(capped.corrections, 3);
  EXPECT_EQ(capped.rs.refine_iterations, 3);
}

TEST(LadderPolicy, ZeroResidualAcceptsEvenAtInfiniteCondition) {
  ScriptedRung zero({{0.0, 2.0}});
  zero.cond = kInf;  // cond * eta = inf * 0 = NaN fails the tol test
  EXPECT_EQ(zero.run(), core::RungExit::accepted);
  EXPECT_TRUE(zero.rs.accepted);
  EXPECT_EQ(zero.rs.backward_error, 0.0);
  EXPECT_TRUE(std::isnan(zero.rs.forward_estimate));
}

TEST(LadderPolicy, NonFiniteNormOrScaleExitsBeforeAnyCorrection) {
  const std::vector<core::ResidualNorm> bad = {
      {kNaN, 1.0}, {kInf, 1.0}, {1.0, kNaN}, {1.0, kInf}, {0.0, kNaN},
      {0.0, kInf}};
  for (const auto& m : bad) {
    ScriptedRung r({m});
    EXPECT_EQ(r.run(), core::RungExit::nonfinite)
        << m.norm << " / " << m.scale;
    EXPECT_EQ(r.corrections, 0);
    EXPECT_FALSE(r.rs.accepted);
    EXPECT_FALSE(std::isfinite(r.rs.backward_error));
  }
  // A measurement that turns non-finite mid-rung stops the rung there.
  ScriptedRung late({{1.0, 1.0}, {kNaN, 1.0}});
  EXPECT_EQ(late.run(), core::RungExit::nonfinite);
  EXPECT_EQ(late.corrections, 1);
  EXPECT_EQ(late.rs.refine_iterations, 1);
}

TEST(LadderPolicy, RefineIterationsCountCorrections) {
  // The zero-or-negative scale falls back to 1.
  ScriptedRung r({{1.0, 0.0}, {0.25, 0.0}, {0.0625, 0.0}, {1e-30, 0.0}});
  EXPECT_EQ(r.run(), core::RungExit::accepted);
  EXPECT_EQ(r.corrections, 3);
  EXPECT_EQ(r.rs.refine_iterations, 3);
  EXPECT_EQ(r.rs.backward_error, 1e-30);
}

TEST(LadderPolicy, FloorAndRefactorGateConstants) {
  using core::detail::eps_of_limbs;
  EXPECT_EQ(core::rung_floor(24, 2), 64.0 * 24 * eps_of_limbs(2));
  // cond * eps(2) == 1e-2 exactly (eps is a power of two): keep the
  // factors; one ulp more condemns them; a NaN cond keeps them.
  const double at = 1e-2 / eps_of_limbs(2);
  ASSERT_EQ(at * eps_of_limbs(2), 1e-2);
  EXPECT_FALSE(core::must_refactor(at, 2));
  EXPECT_TRUE(core::must_refactor(std::nextafter(at, kInf), 2));
  EXPECT_FALSE(core::must_refactor(kNaN, 2));
}

// --- the ladder --------------------------------------------------------------

TEST(AdaptiveLsq, WellConditionedAcceptsAtDoubleDouble) {
  std::mt19937_64 gen(21);
  auto a = blas::random_matrix<md::od_real>(24, 16, gen);
  auto xs = blas::random_vector<md::od_real>(16, gen);
  auto b = blas::gemv(a, std::span<const md::od_real>(xs));
  AdaptiveOptions opt;
  opt.tol = 1e-25;
  auto res = core::adaptive_least_squares<8>(device::volta_v100(), a, b, opt);
  EXPECT_TRUE(res.converged);
  ASSERT_EQ(res.rungs.size(), 1u);
  EXPECT_EQ(res.final_precision, md::Precision::d2);
  EXPECT_TRUE(res.rungs[0].refactorized);
  EXPECT_TRUE(res.rungs[0].accepted);
}

// The acceptance pin of ISSUE 2: on the Hilbert-like family from
// precision_sweep, a 1e-25 tolerance is met starting at d2, escalating
// only when the acceptance test fails, at modeled cost strictly below an
// always-d8 direct solve (priced with dry-run tallies).
TEST(AdaptiveLsq, HilbertMeetsToleranceBelowAlwaysOctoDoubleCost) {
  auto [a, b] = hilbert_problem<8>(24, 16);
  AdaptiveOptions opt;
  opt.tol = 1e-25;
  auto res = core::adaptive_least_squares<8>(device::volta_v100(), a, b, opt);

  EXPECT_TRUE(res.converged);
  ASSERT_EQ(res.rungs.size(), 2u);
  // Rung 1: d2 factorization, acceptance fails (cond ~ 2e20 makes the
  // estimated forward error ~1e-13 >> 1e-25).
  EXPECT_EQ(res.rungs[0].precision, md::Precision::d2);
  EXPECT_TRUE(res.rungs[0].refactorized);
  EXPECT_FALSE(res.rungs[0].accepted);
  EXPECT_GT(res.rungs[0].forward_estimate, opt.tol);
  // Rung 2: escalation by REFINEMENT on the d2 factors — no d4
  // refactorization; the launches run at the d2 factor precision.
  EXPECT_EQ(res.rungs[1].precision, md::Precision::d4);
  EXPECT_FALSE(res.rungs[1].refactorized);
  EXPECT_EQ(res.rungs[1].device_precision, md::Precision::d2);
  EXPECT_GE(res.rungs[1].refine_iterations, 1);
  EXPECT_TRUE(res.rungs[1].accepted);

  // It really solved the problem (known all-ones solution).
  EXPECT_LE(worst_vs_ones<8>(res.x), 1e3 * opt.tol);

  // The cost claim, on dry-run-tally pricing: strictly below always-d8.
  const double d8_ms = always_d8_kernel_ms(24, 16, opt.tile);
  EXPECT_LT(res.kernel_ms(), d8_ms);
  EXPECT_LT(res.kernel_ms(), 0.5 * d8_ms);  // and not by a whisker
}

TEST(AdaptiveLsq, RefactorizesWhenConditioningDefeatsTheFactors) {
  // cond ~ 9e31 > 1/eps(d2): the d2 factors cannot drive refinement, so
  // the d4 rung must refactorize — and still beat an always-d8 solve.
  auto [a, b] = hilbert_problem<8>(32, 24);
  AdaptiveOptions opt;
  opt.tol = 1e-25;
  auto res = core::adaptive_least_squares<8>(device::volta_v100(), a, b, opt);

  EXPECT_TRUE(res.converged);
  ASSERT_GE(res.rungs.size(), 2u);
  EXPECT_FALSE(res.rungs[0].accepted);
  EXPECT_EQ(res.rungs[1].precision, md::Precision::d4);
  EXPECT_TRUE(res.rungs[1].refactorized);
  EXPECT_EQ(res.rungs[1].device_precision, md::Precision::d4);
  EXPECT_LE(worst_vs_ones<8>(res.x), 1e3 * opt.tol);
  EXPECT_LT(res.kernel_ms(), always_d8_kernel_ms(32, 24, opt.tile));
}

TEST(AdaptiveLsq, ClimbsToOctoDoubleByRefinementOnQuadFactors) {
  // cond ~ 1e42: d2 probe, d4 refactorization, then d8 accuracy reached
  // by refinement on the d4 factors — the full ladder with no d8
  // factorization ever run.
  auto [a, b] = hilbert_problem<8>(48, 32);
  AdaptiveOptions opt;
  opt.tol = 1e-25;
  auto res = core::adaptive_least_squares<8>(device::volta_v100(), a, b, opt);

  EXPECT_TRUE(res.converged);
  ASSERT_EQ(res.rungs.size(), 3u);
  EXPECT_TRUE(res.rungs[1].refactorized);
  EXPECT_EQ(res.rungs[2].precision, md::Precision::d8);
  EXPECT_FALSE(res.rungs[2].refactorized);
  EXPECT_EQ(res.rungs[2].device_precision, md::Precision::d4);
  EXPECT_LE(worst_vs_ones<8>(res.x), 1e3 * opt.tol);
  EXPECT_LT(res.kernel_ms(), always_d8_kernel_ms(48, 32, opt.tile));
}

TEST(AdaptiveLsq, LooseToleranceNeverEscalates) {
  auto [a, b] = hilbert_problem<8>(24, 16);
  AdaptiveOptions opt;
  opt.tol = 1e-8;
  auto res = core::adaptive_least_squares<8>(device::volta_v100(), a, b, opt);
  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.rungs.size(), 1u);
  EXPECT_EQ(res.final_precision, md::Precision::d2);
}

TEST(AdaptiveLsq, ImpossibleToleranceExhaustsLadderGracefully) {
  auto [a, b] = hilbert_problem<8>(16, 12);
  AdaptiveOptions opt;
  opt.tol = 1e-200;
  opt.tile = 4;
  auto res = core::adaptive_least_squares<8>(device::volta_v100(), a, b, opt);
  EXPECT_FALSE(res.converged);
  ASSERT_EQ(res.rungs.size(), 3u);
  EXPECT_EQ(res.final_precision, md::Precision::d8);
  for (const auto& r : res.rungs) EXPECT_FALSE(r.accepted);
  // The best solution so far is still returned (d8-level accuracy).
  EXPECT_LE(worst_vs_ones<8>(res.x), 1e-100);
}

// A single NaN or Inf entry in A or b must never come back converged:
// the rung measures a non-finite backward error, runs no correction, and
// the ladder stops climbing.  Neither may finite input whose answer is not
// finite (an exactly zero column divides by a zero pivot).
TEST(AdaptiveLsq, NonFiniteInputOrAnswerNeverConverges) {
  std::mt19937_64 gen(21);
  const auto a = blas::random_matrix<md::od_real>(24, 16, gen);
  const auto b = blas::random_vector<md::od_real>(24, gen);
  AdaptiveOptions opt;
  opt.tol = 1e-25;
  const auto check = [&](const blas::Matrix<md::od_real>& aa,
                         const blas::Vector<md::od_real>& bb,
                         const char* what) {
    auto res =
        core::adaptive_least_squares<8>(device::volta_v100(), aa, bb, opt);
    EXPECT_FALSE(res.converged) << what;
    ASSERT_EQ(res.rungs.size(), 1u) << what;
    EXPECT_FALSE(res.rungs[0].accepted) << what;
    EXPECT_EQ(res.rungs[0].refine_iterations, 0) << what;
    EXPECT_FALSE(std::isfinite(res.rungs[0].backward_error)) << what;
  };
  for (const double bad : {kNaN, kInf}) {
    auto abad = a;
    abad(5, 3) = md::od_real(bad);
    check(abad, b, std::isnan(bad) ? "NaN in A" : "Inf in A");
    auto bbad = b;
    bbad[7] = md::od_real(bad);
    check(a, bbad, std::isnan(bad) ? "NaN in b" : "Inf in b");
  }
  auto singular = a;
  for (int i = 0; i < singular.rows(); ++i) singular(i, 3) = md::od_real(0.0);
  check(singular, b, "zero column");
}

TEST(AdaptiveLsq, RungTalliesAreExactAndHostWorkIsAccounted) {
  auto [a, b] = hilbert_problem<8>(24, 16);
  AdaptiveOptions opt;
  opt.tol = 1e-25;
  auto res = core::adaptive_least_squares<8>(device::volta_v100(), a, b, opt);
  for (const auto& r : res.rungs) {
    EXPECT_TRUE(r.measured == r.analytic)
        << "rung " << md::name_of(r.precision);
    // Every rung evaluates at least one residual/gradient pair on the host.
    EXPECT_GT(r.host_ops.md_ops(), 0);
  }
}

TEST(AdaptiveLsq, ConformanceSweep) {
  for (const auto& c : shape_sweep(0xad1, 4, 8, 3, 12))
    check_adaptive_conformance<8>(c, 1e-25);
  for (const auto& c : shape_sweep(0xad2, 2, 6, 2, 8))
    check_adaptive_conformance<4>(c, 1e-12);
}

// --- odd limb counts (the limb-generic engine) -------------------------------

TEST(AdaptiveLsq, OddLimbConformanceSweep) {
  // d3 and d6 targets through the same oracle as the published counts:
  // default ladders ({2, 3} and {2, 4, 6} after cap-landing), plus an
  // explicit odd rung sequence.
  for (const auto& c : shape_sweep(0xad3, 3, 6, 2, 8))
    check_adaptive_conformance<3>(c, 1e-30);
  for (const auto& c : shape_sweep(0xad6, 3, 6, 2, 8))
    check_adaptive_conformance<6>(c, 1e-60);
  for (const auto& c : shape_sweep(0xad7, 2, 6, 2, 8))
    check_adaptive_conformance<6>(c, 1e-60, 1e4, {2, 3, 6});
}

TEST(AdaptiveLsq, OddLimbSeqVsParallelIdentityAndTallyConservation) {
  for (const auto& c : shape_sweep(0xadd, 2, 6, 2, 8)) {
    test_support::check_adaptive_parallel_identity<3>(c, 1e-30);
    test_support::check_adaptive_parallel_identity<6>(c, 1e-60, {2, 3, 6});
  }
}

// The escalation pin of ISSUE 7: on the 32x24 Hilbert problem
// (cond ~ 9e31 > 1/eps(d2)) a 1e-10 tolerance is out of d2's reach and
// cond * eps(d2) defeats the d2 factors, so the next rung refactorizes —
// with rungs {2, 3} that refactorization lands on d3, which meets the
// tolerance at strictly lower modeled cost than the default ladder's d4.
TEST(AdaptiveLsq, TripleDoubleMeetsWhatDoubleDoubleCannotBelowQuadCost) {
  auto [a, b] = hilbert_problem<8>(32, 24);

  AdaptiveOptions opt2;  // d2 alone cannot
  opt2.tol = 1e-10;
  opt2.rungs = {2};
  auto only2 = core::adaptive_least_squares<8>(device::volta_v100(), a, b,
                                               opt2);
  EXPECT_FALSE(only2.converged);
  EXPECT_GT(only2.rungs.back().forward_estimate, opt2.tol);

  AdaptiveOptions opt3;  // d2 -> d3
  opt3.tol = 1e-10;
  opt3.rungs = {2, 3};
  auto via3 = core::adaptive_least_squares<8>(device::volta_v100(), a, b,
                                              opt3);
  EXPECT_TRUE(via3.converged);
  ASSERT_EQ(via3.rungs.size(), 2u);
  EXPECT_EQ(via3.rungs[1].precision, md::Precision(3));
  EXPECT_TRUE(via3.rungs[1].refactorized);  // the d2 factors were defeated
  EXPECT_EQ(via3.rungs[1].device_precision, md::Precision(3));
  EXPECT_TRUE(via3.rungs[1].accepted);
  EXPECT_LE(worst_vs_ones<8>(via3.x), 1e3 * opt3.tol);
  EXPECT_TRUE(via3.device_measured() == via3.device_analytic());

  AdaptiveOptions opt4;  // the default escalation target
  opt4.tol = 1e-10;
  opt4.rungs = {2, 4};
  auto via4 = core::adaptive_least_squares<8>(device::volta_v100(), a, b,
                                              opt4);
  EXPECT_TRUE(via4.converged);
  EXPECT_EQ(via4.rungs.back().precision, md::Precision::d4);

  // The payoff: one extra limb instead of two, strictly cheaper on the
  // modeled clock (cost_table(3) averages ~44% of cost_table(4)).
  EXPECT_LT(via3.kernel_ms(), via4.kernel_ms());
}

TEST(AdaptiveLsqDry, CustomRungSequencePricesItsOwnLadder) {
  AdaptiveOptions opt;
  opt.rungs = {2, 3};
  auto dry = core::adaptive_least_squares_dry<md::od_real>(
      device::volta_v100(), 32, 24, opt);
  ASSERT_EQ(dry.rungs.size(), 2u);
  EXPECT_EQ(dry.rungs[0].precision, md::Precision::d2);
  EXPECT_TRUE(dry.rungs[0].refactorized);
  EXPECT_EQ(dry.rungs[1].precision, md::Precision(3));
  EXPECT_EQ(dry.rungs[1].device_precision, md::Precision::d2);
  EXPECT_GT(dry.rungs[1].analytic.md_ops(), 0);
  // The dry model prices post-start rungs as refinement on the starting
  // factors (corrections run at the factor precision), so a {2, 3} and a
  // {2, 4} ladder price the same expected schedule — the cost difference
  // between d3 and d4 escalation is a functional-path property, pinned by
  // TripleDoubleMeetsWhatDoubleDoubleCannotBelowQuadCost above.
  AdaptiveOptions opt4;
  opt4.rungs = {2, 4};
  auto dry4 = core::adaptive_least_squares_dry<md::od_real>(
      device::volta_v100(), 32, 24, opt4);
  EXPECT_DOUBLE_EQ(dry.kernel_ms(), dry4.kernel_ms());
}

// --- dry-run pricing ---------------------------------------------------------

TEST(AdaptiveLsqDry, LadderScheduleAndCostStructure) {
  AdaptiveOptions opt;
  auto dry = core::adaptive_least_squares_dry<md::od_real>(
      device::volta_v100(), 24, 16, opt);
  ASSERT_EQ(dry.rungs.size(), 3u);  // d2 factor, d4 refine, d8 refine
  EXPECT_EQ(dry.rungs[0].precision, md::Precision::d2);
  EXPECT_TRUE(dry.rungs[0].refactorized);
  EXPECT_EQ(dry.rungs[1].precision, md::Precision::d4);
  EXPECT_EQ(dry.rungs[1].device_precision, md::Precision::d2);
  EXPECT_EQ(dry.rungs[1].refine_iterations, core::dry_refine_sweeps);
  EXPECT_EQ(dry.rungs[2].precision, md::Precision::d8);

  // Rung 0 prices exactly the d2 direct pipeline plus the condition
  // estimate, and the modeled ladder undercuts an always-d8 solve.
  device::Device d2(device::volta_v100(), md::Precision::d2,
                    device::ExecMode::dry_run);
  core::least_squares_dry<md::dd_real>(d2, 24, 16, opt.tile);
  const auto direct = d2.analytic_total();
  const auto rung0 = dry.rungs[0].analytic;
  EXPECT_TRUE(rung0 == direct + blas::tri_condition_ops(16));
  EXPECT_LT(dry.kernel_ms(), always_d8_kernel_ms(24, 16, opt.tile));
}

TEST(AdaptiveLsqDry, FunctionalLadderCostMatchesDryWhenPathsAgree) {
  // On the 24x16 Hilbert problem the functional ladder takes the path the
  // dry model assumes (factor at d2, refine upward), so its device tallies
  // stay within the dry schedule's ballpark: equal rung-0 factorization,
  // refinement launches priced identically per iteration.  Rung 0's
  // modeled wall time matches too, so the pricer's transfers (A, b in,
  // x out; the factors stay resident) cannot drift from the ladder's.
  auto [a, b] = hilbert_problem<8>(24, 16);
  AdaptiveOptions opt;
  opt.tol = 1e-25;
  auto fn = core::adaptive_least_squares<8>(device::volta_v100(), a, b, opt);
  auto dry = core::adaptive_least_squares_dry<md::od_real>(
      device::volta_v100(), 24, 16, opt);
  ASSERT_GE(fn.rungs.size(), 2u);
  ASSERT_TRUE(fn.rungs[0].refactorized);
  ASSERT_EQ(fn.rungs[0].refine_iterations, 0);
  EXPECT_TRUE(fn.rungs[0].analytic == dry.rungs[0].analytic);
  EXPECT_DOUBLE_EQ(fn.rungs[0].kernel_ms, dry.rungs[0].kernel_ms);
  EXPECT_DOUBLE_EQ(fn.rungs[0].wall_ms, dry.rungs[0].wall_ms);
}

// --- batched adaptive --------------------------------------------------------

namespace {

// A mixed batch: well-conditioned problems that stay at d2 next to
// Hilbert-like ones that climb — different per-problem rungs by design.
std::vector<BatchProblem<md::od_real>> mixed_batch() {
  std::vector<BatchProblem<md::od_real>> batch;
  std::mt19937_64 gen(31);
  batch.push_back(BatchProblem<md::od_real>::functional(
      blas::random_matrix<md::od_real>(24, 16, gen),
      blas::random_vector<md::od_real>(24, gen)));
  {
    auto [a, b] = hilbert_problem<8>(24, 16);
    batch.push_back(BatchProblem<md::od_real>::functional(a, b));
  }
  {
    auto [a, b] = hilbert_problem<8>(32, 24);
    batch.push_back(BatchProblem<md::od_real>::functional(a, b));
  }
  batch.push_back(BatchProblem<md::od_real>::functional(
      blas::random_matrix<md::od_real>(16, 8, gen),
      blas::random_vector<md::od_real>(16, gen)));
  return batch;
}

BatchedLsqOptions adaptive_batch_options() {
  BatchedLsqOptions opt;
  opt.tile = 8;
  opt.pipeline = BatchPipeline::adaptive;
  opt.adaptive.tol = 1e-25;
  return opt;
}

}  // namespace

TEST(BatchedAdaptive, BitIdenticalToSequentialAdaptiveSolves) {
  auto batch = mixed_batch();
  const auto opt = adaptive_batch_options();

  // Sequential baseline: the adaptive driver, one problem at a time.
  std::vector<core::AdaptiveLsqResult<8>> seq;
  for (const auto& p : batch) {
    AdaptiveOptions aopt = opt.adaptive;
    aopt.tile = opt.tile;
    seq.push_back(core::adaptive_least_squares<8>(device::volta_v100(), p.a,
                                                  p.b, aopt));
  }

  for (int width : {1, 2, 3}) {
    for (auto policy :
         {ShardPolicy::round_robin, ShardPolicy::greedy_by_modeled_time}) {
      BatchedLsqOptions o = opt;
      o.policy = policy;
      auto pool = DevicePool::homogeneous(device::volta_v100(), width);
      auto res = core::batched_least_squares<md::od_real>(pool, batch, o);
      ASSERT_EQ(res.problems.size(), batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const auto& p = res.problems[i];
        ASSERT_EQ(p.x.size(), seq[i].x.size());
        for (std::size_t j = 0; j < p.x.size(); ++j)
          for (int l = 0; l < 8; ++l)
            EXPECT_EQ(p.x[j].limb(l), seq[i].x[j].limb(l))
                << "width " << width << " problem " << i << " entry " << j;
        EXPECT_TRUE(p.analytic == seq[i].device_analytic());
        EXPECT_TRUE(p.measured == seq[i].device_measured());
        EXPECT_EQ(p.rungs.size(), seq[i].rungs.size());
        EXPECT_EQ(p.final_precision, seq[i].final_precision);
        EXPECT_DOUBLE_EQ(p.kernel_ms, seq[i].kernel_ms());
      }
    }
  }
}

TEST(BatchedAdaptive, TallyConservationWithMixedRungs) {
  auto batch = mixed_batch();
  auto pool = DevicePool::homogeneous(device::volta_v100(), 2);
  auto res = core::batched_least_squares<md::od_real>(
      pool, batch, adaptive_batch_options());

  // Problems climbed different ladders.
  EXPECT_EQ(res.problems[0].rungs.size(), 1u);
  EXPECT_GE(res.problems[1].rungs.size(), 2u);

  // Batch tally == sum of per-problem device tallies == sum of device
  // rows == sum of per-rung report rows.
  md::OpTally sum_problems, sum_rungs_per_problem;
  double sum_gflop = 0;
  for (const auto& p : res.problems) {
    sum_problems += p.analytic;
    sum_gflop += p.dp_gflop;
    md::OpTally t;
    for (const auto& r : p.rungs) t += r.analytic;
    EXPECT_TRUE(t == p.analytic) << "problem " << p.problem;
    EXPECT_TRUE(p.measured == p.analytic) << "problem " << p.problem;
  }
  EXPECT_TRUE(res.report.tally == sum_problems);

  md::OpTally sum_rows;
  for (const auto& row : res.report.rows) sum_rows += row.tally;
  EXPECT_TRUE(res.report.tally == sum_rows);

  md::OpTally rung_rows_sum;
  int rung_problem_entries = 0;
  for (const auto& rr : res.report.rungs) {
    rung_rows_sum += rr.tally;
    rung_problem_entries += rr.problems;
  }
  EXPECT_TRUE(res.report.tally == rung_rows_sum);
  int expected_entries = 0;
  for (const auto& p : res.problems)
    expected_entries += static_cast<int>(p.rungs.size());
  EXPECT_EQ(rung_problem_entries, expected_entries);
  EXPECT_NEAR(res.report.dp_gflop_total, sum_gflop, 1e-12);

  // Mixed rungs: the d2 rung served every problem, the d4 rung only the
  // escalating ones.
  ASSERT_GE(res.report.rungs.size(), 2u);
  EXPECT_EQ(res.report.rungs[0].precision, md::Precision::d2);
  EXPECT_EQ(res.report.rungs[0].problems,
            static_cast<int>(batch.size()));
  EXPECT_LT(res.report.rungs[1].problems,
            static_cast<int>(batch.size()));
}

TEST(BatchedAdaptive, LptPricesTheLadderBelowAlwaysD8) {
  // The shard assigner prices an adaptive problem with the ladder's dry
  // schedule, which undercuts the same problem priced always-d8.
  std::mt19937_64 gen(37);
  BatchedLsqOptions opt = adaptive_batch_options();
  BatchedLsqOptions d8 = opt;
  d8.pipeline = BatchPipeline::direct;
  for (const auto& [m, c] : {std::pair{64, 48}, std::pair{32, 16}}) {
    const auto p = BatchProblem<md::od_real>::functional(
        blas::random_matrix<md::od_real>(m, c, gen),
        blas::random_vector<md::od_real>(m, gen));
    AdaptiveOptions aopt = opt.adaptive;
    aopt.tile = opt.tile;
    const auto& spec = device::volta_v100();
    const double ladder = core::detail::modeled_wall_ms(spec, p, opt);
    EXPECT_EQ(ladder,
              core::adaptive_least_squares_dry<md::od_real>(spec, m, c, aopt)
                  .wall_ms());
    EXPECT_LT(ladder, core::detail::modeled_wall_ms(spec, p, d8))
        << m << "x" << c;
  }
}

TEST(BatchedAdaptive, ReportPrintsEscalationTable) {
  auto batch = mixed_batch();
  auto pool = DevicePool::homogeneous(device::volta_v100(), 2);
  auto res = core::batched_least_squares<md::od_real>(
      pool, batch, adaptive_batch_options());
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  res.report.print(sink);
  std::fseek(sink, 0, SEEK_END);
  EXPECT_GT(std::ftell(sink), 0);
  std::fclose(sink);
}
