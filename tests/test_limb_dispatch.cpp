// The limb-dispatch layer (core/limb_dispatch.hpp): total dispatch over
// the instantiation list (throwing std::invalid_argument on unsupported
// counts — a release-mode regression test: the old switch hit an
// NDEBUG-silent assert and skipped the callable entirely), rung-sequence
// resolution, the eps_of_limbs underflow fix, and the promoted
// input-validation throws on the user-facing entry points.  The default
// CMake build compiles Release (NDEBUG), so these tests exercise exactly
// the configuration the old code failed in.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <vector>

#include "blas/condition.hpp"
#include "blas/generate.hpp"
#include "core/adaptive_lsq.hpp"
#include "core/batched_lsq.hpp"
#include "core/limb_dispatch.hpp"
#include "support/test_support.hpp"

using namespace mdlsq;
using core::default_rungs;
using core::resolve_rungs;
using core::SupportedLimbs;
using core::with_limbs;

// --- with_limbs -------------------------------------------------------------

TEST(WithLimbs, DispatchesTheMatchingTagForEverySupportedCount) {
  for (const int l : SupportedLimbs::values()) {
    int seen = 0;
    with_limbs(l, [&](auto tag) { seen = decltype(tag)::limbs; });
    EXPECT_EQ(seen, l);
  }
}

TEST(WithLimbs, SupportedListContainsTheLadderCounts) {
  for (const int l : {1, 2, 3, 4, 5, 6, 8, 16})
    EXPECT_TRUE(SupportedLimbs::contains(l)) << l;
  EXPECT_FALSE(SupportedLimbs::contains(7));
  EXPECT_FALSE(SupportedLimbs::contains(0));
}

TEST(WithLimbs, ThrowsInsteadOfSilentlySkippingTheCallable) {
  // Regression: the pre-fix switch asserted and, under NDEBUG, returned
  // without invoking f — callers observed default-initialized results.
  bool invoked = false;
  const auto mark = [&](auto) { invoked = true; };
  EXPECT_THROW(with_limbs(7, mark), std::invalid_argument);
  EXPECT_THROW(with_limbs(0, mark), std::invalid_argument);
  EXPECT_THROW(with_limbs(-2, mark), std::invalid_argument);
  EXPECT_FALSE(invoked);
  // The legacy detail:: spelling is the same function.
  EXPECT_THROW(core::detail::with_limbs(7, mark), std::invalid_argument);
}

// --- rung sequences ---------------------------------------------------------

TEST(Rungs, DefaultLadderDoublesAndLandsOnTheCap) {
  EXPECT_EQ(default_rungs(8), (std::vector<int>{2, 4, 8}));
  EXPECT_EQ(default_rungs(2), (std::vector<int>{2}));
  EXPECT_EQ(default_rungs(16), (std::vector<int>{2, 4, 8, 16}));
  // Doubling that overshoots the target appends it as the final rung.
  EXPECT_EQ(default_rungs(6), (std::vector<int>{2, 4, 6}));
  EXPECT_EQ(default_rungs(3), (std::vector<int>{2, 3}));
  EXPECT_EQ(default_rungs(1), (std::vector<int>{1}));
}

TEST(Rungs, EmptySequenceResolvesToTheDefaultLadder) {
  EXPECT_EQ(resolve_rungs({}, 8), (std::vector<int>{2, 4, 8}));
}

TEST(Rungs, ExplicitSequenceDropsRungsAboveTheTarget) {
  EXPECT_EQ(resolve_rungs({1, 2, 3, 4, 6, 8}, 6),
            (std::vector<int>{1, 2, 3, 4, 6}));
  EXPECT_EQ(resolve_rungs({2, 3}, 8), (std::vector<int>{2, 3}));
  EXPECT_EQ(resolve_rungs({4, 16}, 8), (std::vector<int>{4}));
}

TEST(Rungs, InvalidSequencesThrow) {
  EXPECT_THROW(resolve_rungs({4, 2}, 8), std::invalid_argument);   // order
  EXPECT_THROW(resolve_rungs({2, 2}, 8), std::invalid_argument);   // strict
  EXPECT_THROW(resolve_rungs({2, 7}, 8), std::invalid_argument);   // count
  EXPECT_THROW(resolve_rungs({16}, 8), std::invalid_argument);     // target
  // A ladder that starts above the target, or at a non-positive count.
  EXPECT_THROW(resolve_rungs({4, 8}, 2), std::invalid_argument);
  EXPECT_THROW(resolve_rungs({0, 8}, 8), std::invalid_argument);
  EXPECT_THROW(resolve_rungs({-1}, 8), std::invalid_argument);
}

// --- eps_of_limbs -----------------------------------------------------------

TEST(EpsOfLimbs, ExactPowersOfTwoAtTheLadderPrecisions) {
  using core::detail::eps_of_limbs;
  EXPECT_EQ(eps_of_limbs(1), std::ldexp(1.0, -51));
  EXPECT_EQ(eps_of_limbs(2), std::ldexp(1.0, -104));
  EXPECT_EQ(eps_of_limbs(3), std::ldexp(1.0, -157));
  EXPECT_EQ(eps_of_limbs(8), std::ldexp(1.0, -422));
  EXPECT_EQ(eps_of_limbs(16), std::ldexp(1.0, -846));
}

TEST(EpsOfLimbs, ClampsAtTheSubnormalBoundaryInsteadOfUnderflowing) {
  using core::detail::eps_of_limbs;
  // The pre-fix halving loop returned a subnormal at 20 limbs and exactly
  // zero from 21 on, degenerating every cond * eps acceptance test.
  const double min_normal = std::numeric_limits<double>::min();
  EXPECT_EQ(eps_of_limbs(20), min_normal);
  EXPECT_EQ(eps_of_limbs(64), min_normal);
  for (int l = 1; l < 64; ++l) {
    EXPECT_GT(eps_of_limbs(l), 0.0) << l;
    EXPECT_GE(eps_of_limbs(l), eps_of_limbs(l + 1)) << l;
  }
}

// --- promoted input validation on the user-facing entry points --------------

TEST(EntryPointValidation, AdaptiveLsqThrowsOnBadShapesAndRungs) {
  const auto spec = device::volta_v100();
  auto a = blas::hilbert_like<md::mdreal<2>>(8, 8);
  blas::Vector<md::mdreal<2>> b(8, md::mdreal<2>(1.0));

  core::AdaptiveOptions bad_tile;
  bad_tile.tile = 3;  // does not divide cols = 8
  EXPECT_THROW(core::adaptive_least_squares<2>(spec, a, b, bad_tile),
               std::invalid_argument);
  core::AdaptiveOptions zero_tile;
  zero_tile.tile = 0;
  EXPECT_THROW(core::adaptive_least_squares<2>(spec, a, b, zero_tile),
               std::invalid_argument);

  blas::Vector<md::mdreal<2>> short_b(4, md::mdreal<2>(1.0));
  EXPECT_THROW(core::adaptive_least_squares<2>(spec, a, short_b, {}),
               std::invalid_argument);

  auto wide = blas::hilbert_like<md::mdreal<2>>(4, 8);
  blas::Vector<md::mdreal<2>> wb(4, md::mdreal<2>(1.0));
  EXPECT_THROW(core::adaptive_least_squares<2>(spec, wide, wb, {}),
               std::invalid_argument);

  core::AdaptiveOptions bad_rungs;
  bad_rungs.tile = 4;
  bad_rungs.rungs = {2, 7};
  EXPECT_THROW(core::adaptive_least_squares<2>(spec, a, b, bad_rungs),
               std::invalid_argument);
  core::AdaptiveOptions bad_start;
  bad_start.tile = 4;
  bad_start.rungs = {4, 8};  // starts above NH = 2
  EXPECT_THROW(core::adaptive_least_squares<2>(spec, a, b, bad_start),
               std::invalid_argument);
  EXPECT_THROW(
      (core::adaptive_least_squares_dry<md::mdreal<2>>(spec, 8, 8, bad_start)),
      std::invalid_argument);
}

TEST(EntryPointValidation, BatchedLsqRejectsAnEmptyPool) {
  core::DevicePool empty;
  std::vector<core::BatchProblem<md::dd_real>> problems(1);
  problems[0].a = blas::hilbert_like<md::dd_real>(8, 8);
  problems[0].b = blas::Vector<md::dd_real>(8, md::dd_real(1.0));
  EXPECT_THROW(core::shard_assignment(empty, problems, {}),
               std::invalid_argument);
  EXPECT_THROW(core::batched_least_squares(empty, problems, {}),
               std::invalid_argument);
}

TEST(EntryPointValidation, TriConditionValidatesItsBlockShape) {
  blas::Matrix<md::dd_real> r(4, 4);
  for (int i = 0; i < 4; ++i) r(i, i) = md::dd_real(1.0);
  EXPECT_THROW(blas::tri_condition_inf(r, 0), std::invalid_argument);
  EXPECT_THROW(blas::tri_condition_inf(r, 5), std::invalid_argument);
  EXPECT_NO_THROW(blas::tri_condition_inf(r, 4));
}
