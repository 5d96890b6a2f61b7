// Cross-step factor residency in the path tracker
// (TrackOptions::reuse_factors, DESIGN.md §7): an accepted step's QR
// factorization and Taylor series stay device-resident and serve the next
// step's predictor/corrector as long as the next center remains inside
// the factorization's trust budget (step_factor * pole_radius from the
// factored center).  Reused steps skip the recenter + factor launches
// entirely — the dominant cost at small steps — and fall back to a fresh
// factorization transparently (StepVerdict::retry_fresh) when the stale
// factors stagnate.
//
// The knob is OFF by default: the historical schedule (every step
// refactorizes) must replay unchanged.
#include <gtest/gtest.h>

#include <cmath>

#include "blas/generate.hpp"
#include "path/generate.hpp"
#include "path/tracker.hpp"
#include "support/test_support.hpp"

using namespace mdlsq;
using mdlsq::md::mdreal;

namespace {

path::TrackOptions base_options() {
  path::TrackOptions opt;
  opt.tile = 4;
  opt.tol = 1e-20;
  return opt;
}

template <int NH>
double worst_error(const path::TrackResult<NH>& res,
                   const blas::Vector<mdreal<NH>>& want) {
  double worst = 0.0;
  for (std::size_t i = 0; i < want.size(); ++i)
    worst = std::max(worst,
                     std::fabs((res.x[i] - want[i]).to_double()));
  return worst;
}

template <int NH>
int refactorized_steps(const path::TrackResult<NH>& res) {
  int n = 0;
  for (const auto& s : res.steps)
    if (!s.rungs.empty() && s.rungs[0].refactorized) ++n;
  return n;
}

}  // namespace

TEST(FactorCache, ReusedStepsSkipRefactorizationAndStillConverge) {
  blas::Vector<mdreal<4>> v;
  auto h = path::rational_path_homotopy<mdreal<4>>(8, 2.0, 0x7ac3, &v);
  auto opt = base_options();
  opt.reuse_factors = true;
  auto res = path::track<4>(device::volta_v100(), h, opt);

  EXPECT_TRUE(res.converged);
  ASSERT_GE(res.steps.size(), 2u);
  // The pole sits at t = 2, so the trust budget (step_factor * radius =
  // 0.5) spans max_step-limited steps: reuse must actually fire.
  const int fresh = refactorized_steps(res);
  EXPECT_LT(fresh, static_cast<int>(res.steps.size()));
  EXPECT_GE(fresh, 1);  // the first step always factors

  // Accuracy is preserved: x(1) = 2 v to the requested tolerance (with
  // the conformance suite's slack for the condition estimate).
  blas::Vector<mdreal<4>> want(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) want[i] = v[i] * mdreal<4>(2.0);
  double xnorm = 1.0;
  for (const auto& e : v) xnorm = std::max(xnorm, std::fabs(e.to_double()));
  EXPECT_LE(worst_error(res, want), 1e3 * opt.tol * xnorm);

  // Accounting stays exact on reused steps (no launches were dropped
  // from measurement — the skipped ones were never declared).
  EXPECT_TRUE(res.device_measured() == res.device_analytic());
}

TEST(FactorCache, ReuseSavesModeledScheduleCost) {
  // m = 24: large enough that the O(m^3) recenter+factor launches
  // dominate the corrector solves.  Reuse may legitimately reshape the
  // step schedule (stale factors slow the corrector, shrinking a step),
  // so the win is not per-step — it is the whole-path modeled time, and
  // at this size the skipped factorizations decide it.
  auto h = path::rational_path_homotopy<mdreal<4>>(24, 2.0, 0x7ac3, nullptr);
  auto fresh_opt = base_options();
  auto fresh = path::track<4>(device::volta_v100(), h, fresh_opt);

  auto reuse_opt = base_options();
  reuse_opt.reuse_factors = true;
  auto reused = path::track<4>(device::volta_v100(), h, reuse_opt);

  EXPECT_TRUE(fresh.converged);
  EXPECT_TRUE(reused.converged);
  EXPECT_LT(reused.kernel_ms(), fresh.kernel_ms());
  EXPECT_LT(refactorized_steps(reused), refactorized_steps(fresh));
  // Both runs land on the same analytic endpoint to tolerance.
  ASSERT_EQ(reused.x.size(), fresh.x.size());
  double gap = 0.0;
  for (std::size_t i = 0; i < fresh.x.size(); ++i)
    gap = std::max(gap,
                   std::fabs((reused.x[i] - fresh.x[i]).to_double()));
  EXPECT_LE(gap, 1e3 * fresh_opt.tol);
}

TEST(FactorCache, OffByDefaultReplaysTheHistoricalSchedule) {
  blas::Vector<mdreal<4>> v;
  auto h = path::rational_path_homotopy<mdreal<4>>(8, 2.0, 0x7ac3, &v);
  auto opt = base_options();
  ASSERT_FALSE(opt.reuse_factors);
  auto res = path::track<4>(device::volta_v100(), h, opt);
  EXPECT_TRUE(res.converged);
  // Every accepted step refactorized — the pre-cache behavior pinned by
  // test_path_tracker.cpp stays intact under the default.
  for (const auto& s : res.steps) {
    ASSERT_FALSE(s.rungs.empty());
    EXPECT_TRUE(s.rungs[0].refactorized);
  }
}

TEST(FactorCache, SurvivesEscalationOnTheStiffPath) {
  // cond ~ 1e14 forces the d2 -> d4 climb (the escalation pin of
  // test_path_tracker.cpp); the cache must not interfere — it is cleared
  // on the precision restart and repopulated at d4.
  blas::Vector<mdreal<8>> want;
  auto h = path::graded_stiff_homotopy<mdreal<8>>(8, 14.0, 11, &want);
  auto opt = base_options();
  opt.tol = 1e-22;
  opt.reuse_factors = true;
  auto res = path::track<8>(device::volta_v100(), h, opt);

  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.final_precision, md::Precision::d4);
  EXPECT_LE(worst_error(res, want), 1e-30);
  EXPECT_TRUE(res.device_measured() == res.device_analytic());
}
