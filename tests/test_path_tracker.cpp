// The path-tracking subsystem (DESIGN.md §7): series arithmetic and its
// exact declared tallies, homotopy recentering, tracked-path coefficients
// against analytic paths over a conformance-style sweep, the escalation
// pin (a stiff path must climb to d4 while a benign one stays at d2), a
// NaN coefficient that must fail the path instead of converging,
// dry-run/functional schedule equivalence, the whole-path price at the
// ladder's first rung (which LPT sharding ranks by), tally conservation
// sequential vs parallelism=4 vs batched, and batched tracking
// limb-identical to sequential with exactly conserved tallies across
// shards.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <random>
#include <stdexcept>

#include "blas/generate.hpp"
#include "path/batched_tracker.hpp"
#include "path/generate.hpp"
#include "path/tracker.hpp"
#include "support/conformance.hpp"
#include "support/test_support.hpp"

using namespace mdlsq;
using mdlsq::md::mdreal;

namespace {

// The two shared workload families of path/generate.hpp (also driven by
// the bench and the example, so these pins cover the same scenario).
template <int NH>
path::Homotopy<mdreal<NH>> rational_homotopy(int m, double rho,
                                             std::uint64_t seed,
                                             blas::Vector<mdreal<NH>>* v_out) {
  return path::rational_path_homotopy<mdreal<NH>>(m, rho, seed, v_out);
}

template <int NH>
path::Homotopy<mdreal<NH>> stiff_homotopy(int m, std::uint64_t seed,
                                          blas::Vector<mdreal<NH>>* x_end) {
  return path::graded_stiff_homotopy<mdreal<NH>>(m, 14.0, seed, x_end);
}

path::TrackOptions base_options(int tile) {
  path::TrackOptions opt;
  opt.tile = tile;
  opt.tol = 1e-20;
  return opt;
}

void expect_rung_tallies_exact(const path::TrackResult<4>& res) {
  for (const auto& s : res.steps)
    for (const auto& r : s.rungs)
      EXPECT_TRUE(r.measured == r.analytic)
          << "rung " << md::name_of(r.precision) << " tally mismatch";
}

}  // namespace

// --- series arithmetic -------------------------------------------------------

class SeriesTally : public test_support::ScopedTallyTest {};

TEST_F(SeriesTally, HornerOperationCountMatchesDeclaredFormula) {
  using T = md::dd_real;
  std::mt19937_64 gen(1);
  for (int m : {1, 3, 8}) {
    for (int orders : {1, 2, 5}) {
      std::vector<blas::Vector<T>> c;
      for (int k = 0; k < orders; ++k)
        c.push_back(blas::random_vector<T>(m, gen));
      md::OpTally t;
      {
        md::ScopedTally scope(t);
        path::horner_eval(c, 0.5);
      }
      EXPECT_TRUE(t == path::horner_ops<T>(m, orders))
          << "m=" << m << " orders=" << orders;
    }
  }
}

TEST(Series, PoleRadiusRatioEstimate) {
  using T = md::qd_real;
  // Geometric coefficients v / rho^k: the ratio estimate is exactly rho.
  std::mt19937_64 gen(2);
  auto v = blas::random_vector<T>(6, gen);
  std::vector<blas::Vector<T>> c;
  for (int k = 0; k < 8; ++k) {
    blas::Vector<T> ck = v;
    for (auto& e : ck)
      for (int j = 0; j < k; ++j) e = e / T(3.0);
    c.push_back(std::move(ck));
  }
  EXPECT_NEAR(path::pole_radius_estimate(c), 3.0, 1e-9);
  // A polynomial path (vanishing tail) reports +infinity.
  std::vector<blas::Vector<T>> p{v, v, blas::Vector<T>(6, T{})};
  EXPECT_TRUE(std::isinf(path::pole_radius_estimate(p)));
  // A series even in s (odd coefficients vanish, e.g. symmetric poles at
  // +-rho) falls back to the two-order ratio sqrt(||c_{K-2}||/||c_K||)
  // instead of going blind on the zero next-to-last coefficient.
  std::vector<blas::Vector<T>> even;
  for (int k = 0; k < 9; ++k) {
    if (k % 2 == 1) {
      even.push_back(blas::Vector<T>(6, T{}));
      continue;
    }
    blas::Vector<T> ck = v;
    for (auto& e : ck)
      for (int j = 0; j < k; ++j) e = e / T(3.0);
    even.push_back(std::move(ck));
  }
  EXPECT_NEAR(path::pole_radius_estimate(even), 3.0, 1e-9);
}

// --- homotopy ----------------------------------------------------------------

TEST(Homotopy, ValidatesShapesWithThrownErrors) {
  using T = md::dd_real;
  std::mt19937_64 gen(3);
  auto a = blas::random_matrix<T>(4, 4, gen);
  auto b = blas::random_vector<T>(4, gen);
  EXPECT_THROW(path::Homotopy<T>({}, {b}), std::invalid_argument);
  EXPECT_THROW(path::Homotopy<T>({a}, {}), std::invalid_argument);
  EXPECT_THROW(path::Homotopy<T>({a, blas::random_matrix<T>(3, 3, gen)}, {b}),
               std::invalid_argument);
  EXPECT_THROW(path::Homotopy<T>({a}, {blas::random_vector<T>(5, gen)}),
               std::invalid_argument);
  EXPECT_THROW(path::Homotopy<T>({blas::Matrix<T>(0, 0)}, {blas::Vector<T>()}),
               std::invalid_argument);
  EXPECT_NO_THROW(path::Homotopy<T>({a}, {b}));
}

class HomotopyTally : public test_support::ScopedTallyTest {};

TEST_F(HomotopyTally, RecenterAndEvalCountsMatchDeclaredFormulas) {
  using T = md::qd_real;
  std::mt19937_64 gen(4);
  const int m = 5;
  auto a0 = blas::random_matrix<T>(m, m, gen);
  auto a1 = blas::random_matrix<T>(m, m, gen);
  auto b0 = blas::random_vector<T>(m, gen);
  auto b1 = blas::random_vector<T>(m, gen);
  auto b2 = blas::random_vector<T>(m, gen);
  path::Homotopy<T> h({a0, a1}, {b0, b1, b2});

  for (int orders : {1, 2, 6}) {
    md::OpTally t;
    {
      md::ScopedTally scope(t);
      h.taylor_blocks(0.375);
      h.rhs_series(0.375, orders);
    }
    EXPECT_TRUE(t == path::Homotopy<T>::recenter_ops(m, 2, 3, orders))
        << "orders=" << orders;
  }
  {
    md::OpTally t;
    {
      md::ScopedTally scope(t);
      h.a_at(0.625);
      h.b_at(0.625);
    }
    EXPECT_TRUE(t == path::Homotopy<T>::eval_ops(m, 2, 3));
  }
}

TEST(Homotopy, RecenteredSeriesReproducesTheShiftedFamily) {
  using T = md::qd_real;
  std::mt19937_64 gen(5);
  const int m = 4;
  auto a0 = blas::random_matrix<T>(m, m, gen);
  auto a1 = blas::random_matrix<T>(m, m, gen);
  auto b0 = blas::random_vector<T>(m, gen);
  auto b1 = blas::random_vector<T>(m, gen);
  path::Homotopy<T> h({a0, a1}, {b0, b1});
  const double t0 = 0.3, s = 0.2;
  auto blocks = h.taylor_blocks(t0);
  ASSERT_EQ(blocks.size(), 2u);
  // A(t0) + s A'(t0) == A(t0 + s) for the linear family.
  auto direct = h.a_at(t0 + s);
  for (int i = 0; i < m; ++i)
    for (int j = 0; j < m; ++j) {
      const T recon = blocks[0](i, j) + blocks[1](i, j) * T(s);
      EXPECT_LE(std::fabs((recon - direct(i, j)).to_double()), 1e-60);
    }
  auto bser = h.rhs_series(t0, 4);
  ASSERT_EQ(bser.size(), 4u);
  auto bdir = h.b_at(t0 + s);
  for (int i = 0; i < m; ++i) {
    const T recon = bser[0][i] + bser[1][i] * T(s);
    EXPECT_LE(std::fabs((recon - bdir[i]).to_double()), 1e-60);
    EXPECT_TRUE(bser[2][i].is_zero());  // degree-1 rhs: padded with zeros
    EXPECT_TRUE(bser[3][i].is_zero());
  }
}

// --- tracked-path coefficients over the conformance sweep --------------------

TEST(PathTracker, TaylorCoefficientsMatchAnalyticOverSweep) {
  using T = md::qd_real;
  // Conformance-style sweep: seeded shapes (m = tile * tiles), each with
  // the rational path whose coefficients are exactly v / rho^k.
  for (const auto& c : test_support::shape_sweep(0x9a7e57, 4, 6, 2, 0)) {
    SCOPED_TRACE("track " + c.label());
    const int m = c.cols;  // square Jacobians: the sweep's cols drive m
    blas::Vector<T> v;
    auto h = rational_homotopy<4>(m, 2.0, c.seed, &v);
    auto dev = test_support::make_dev<T>(device::ExecMode::functional);
    const int order = 10;
    auto xs = path::taylor_series<T>(dev, h, 0.0, order, c.tile);
    ASSERT_EQ(static_cast<int>(xs.size()), order + 1);
    const double tol = 1e6 * m * T::eps();
    for (int k = 0; k <= order; ++k)
      for (int i = 0; i < m; ++i) {
        // Exact analytic coefficients: x_k = v / 2^k (power-of-two
        // scaling is exact in any multiple-double precision).
        const T want = blas::scale2(v[static_cast<std::size_t>(i)], -k);
        EXPECT_LE(std::fabs((xs[static_cast<std::size_t>(k)]
                               [static_cast<std::size_t>(i)] -
                             want)
                                .to_double()),
                  tol)
            << "order " << k;
      }
    test_support::expect_stage_tallies_exact(dev);
  }
}

TEST(PathTracker, FollowsTheRationalPathAtDoubleDouble) {
  blas::Vector<mdreal<4>> v;
  auto h = rational_homotopy<4>(8, 2.0, 0x7ac3, &v);
  auto opt = base_options(4);
  auto res = path::track<4>(device::volta_v100(), h, opt);

  EXPECT_TRUE(res.converged);
  EXPECT_GE(res.steps.size(), 3u);  // max_step alone forces several steps
  EXPECT_EQ(res.final_precision, md::Precision::d2);
  // x(1) = 2 v, to the requested tolerance (with slack for the condition
  // estimate being a lower bound).
  double xnorm = 1.0, worst = 0.0;
  for (const auto& e : v) xnorm = std::max(xnorm, std::fabs(e.to_double()));
  for (int i = 0; i < 8; ++i)
    worst = std::max(worst, std::fabs((res.x[static_cast<std::size_t>(i)] -
                                       v[static_cast<std::size_t>(i)] *
                                           mdreal<4>(2.0))
                                          .to_double()));
  EXPECT_LE(worst, 1e3 * opt.tol * xnorm);

  // The first step's pole-radius estimate sees the true pole at t = 2,
  // and every accepted step stayed on the d2 rung (the benign pin).
  EXPECT_NEAR(res.steps[0].pole_radius, 2.0, 0.5);
  for (const auto& s : res.steps) {
    EXPECT_TRUE(s.accepted);
    ASSERT_EQ(s.rungs.size(), 1u);
    EXPECT_EQ(s.rungs[0].precision, md::Precision::d2);
    EXPECT_TRUE(s.rungs[0].accepted);
    EXPECT_TRUE(s.rungs[0].refactorized);
  }
  expect_rung_tallies_exact(res);
}

// --- the escalation pin ------------------------------------------------------

TEST(PathTracker, StiffPathClimbsToQuadDoubleBenignStaysAtDoubleDouble) {
  // Stiff: cond ~ 1e14 makes the d2 acceptance test fail at the rung's
  // measurement floor on the first step, so the ladder escalates to d4 —
  // first by refinement on the cached d2 factors, refactorizing only if
  // those stagnate — and later steps start at d4 directly.
  blas::Vector<mdreal<8>> want;
  auto h = stiff_homotopy<8>(8, 11, &want);
  path::TrackOptions opt = base_options(4);
  opt.tol = 1e-22;
  auto res = path::track<8>(device::volta_v100(), h, opt);

  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.final_precision, md::Precision::d4);
  ASSERT_GE(res.steps.size(), 2u);

  const auto& s0 = res.steps[0];
  ASSERT_GE(s0.rungs.size(), 2u);
  EXPECT_EQ(s0.rungs[0].precision, md::Precision::d2);
  EXPECT_FALSE(s0.rungs[0].accepted);
  EXPECT_GT(s0.rungs[0].forward_estimate, opt.tol);  // acceptance failed
  EXPECT_EQ(s0.rungs.back().precision, md::Precision::d4);
  EXPECT_TRUE(s0.rungs.back().accepted);
  // The first escalation attempt reuses the cached d2 factors (refine,
  // not refactor): its launches run at the d2 factor precision.
  EXPECT_FALSE(s0.rungs[1].refactorized);
  EXPECT_EQ(s0.rungs[1].device_precision, md::Precision::d2);

  // The reached precision persists: later steps go straight to d4 and
  // never re-probe d2.
  for (std::size_t k = 1; k < res.steps.size(); ++k) {
    ASSERT_EQ(res.steps[k].rungs.size(), 1u);
    EXPECT_EQ(res.steps[k].rungs[0].precision, md::Precision::d4);
    EXPECT_TRUE(res.steps[k].rungs[0].accepted);
  }

  // It really tracked the analytic path x*(1) = v0 + v1.
  double worst = 0;
  for (int i = 0; i < 8; ++i)
    worst = std::max(worst, std::fabs((res.x[static_cast<std::size_t>(i)] -
                                       want[static_cast<std::size_t>(i)])
                                          .to_double()));
  EXPECT_LE(worst, 1e-30);

  // Never a d8 rung: the ladder spends exactly what the acceptance test
  // demands, nothing higher.
  for (const auto& s : res.steps)
    for (const auto& r : s.rungs)
      EXPECT_NE(r.precision, md::Precision::d8);
}

TEST(PathTracker, ConfiguredRungSequenceStopsAtTripleDouble) {
  // The same stiff path under a {2, 3} rung sequence: the d2 rung fails
  // at its floor exactly as above, but escalation now lands on d3 —
  // refinement on the cached d2 factors reaches the d3 floor (~1e-45),
  // far below the eta ~ 1e-36 the tolerance needs, so the finer rung is
  // sufficient and the ladder never touches d4.
  blas::Vector<mdreal<8>> want;
  auto h = stiff_homotopy<8>(8, 11, &want);
  path::TrackOptions opt = base_options(4);
  opt.tol = 1e-22;
  opt.rungs = {2, 3};
  auto res = path::track<8>(device::volta_v100(), h, opt);

  EXPECT_TRUE(res.converged);
  EXPECT_EQ(res.final_precision, md::Precision(3));
  ASSERT_GE(res.steps.size(), 1u);
  const auto& s0 = res.steps[0];
  ASSERT_GE(s0.rungs.size(), 2u);
  EXPECT_EQ(s0.rungs[0].precision, md::Precision::d2);
  EXPECT_FALSE(s0.rungs[0].accepted);
  EXPECT_EQ(s0.rungs.back().precision, md::Precision(3));
  EXPECT_TRUE(s0.rungs.back().accepted);
  // Escalation refined on the cached d2 factors, no d3 refactorization.
  EXPECT_FALSE(s0.rungs[1].refactorized);
  EXPECT_EQ(s0.rungs[1].device_precision, md::Precision::d2);

  // It really tracked the analytic path, and no rung ever exceeded d3.
  double worst = 0;
  for (int i = 0; i < 8; ++i)
    worst = std::max(worst, std::fabs((res.x[static_cast<std::size_t>(i)] -
                                       want[static_cast<std::size_t>(i)])
                                          .to_double()));
  EXPECT_LE(worst, 1e-25);
  for (const auto& s : res.steps)
    for (const auto& r : s.rungs)
      EXPECT_LE(md::limbs_of(r.precision), 3);
  // Exact tallies survive the odd rung.
  EXPECT_TRUE(res.device_measured() == res.device_analytic());
}

// A NaN homotopy coefficient makes the first corrector measurement
// non-finite: the step fails outright (no halving, no escalation) and
// the path is not converged.
TEST(PathTracker, NanCoefficientFailsTheFirstStep) {
  const auto h = rational_homotopy<4>(8, 2.0, 0x7ac3, nullptr);
  auto a = h.a();
  a[1](2, 5) = mdreal<4>(std::numeric_limits<double>::quiet_NaN());
  const path::Homotopy<mdreal<4>> bad(std::move(a), h.b());
  auto res = path::track<4>(device::volta_v100(), bad, base_options(4));

  EXPECT_FALSE(res.converged);
  ASSERT_EQ(res.steps.size(), 1u);
  const auto& s0 = res.steps[0];
  EXPECT_FALSE(s0.accepted);
  EXPECT_EQ(s0.halvings, 0);
  ASSERT_EQ(s0.rungs.size(), 1u);
  EXPECT_FALSE(s0.rungs[0].accepted);
  EXPECT_EQ(s0.rungs[0].refine_iterations, 0);
  EXPECT_FALSE(std::isfinite(s0.rungs[0].backward_error));
  EXPECT_EQ(res.t_reached, 0.0);
}

TEST(PathTracker, InvalidRungSequenceThrows) {
  auto h = rational_homotopy<4>(8, 2.0, 0x7ac3, nullptr);
  auto opt = base_options(4);
  opt.rungs = {2, 7};  // 7 limbs is not an instantiated count
  EXPECT_THROW(path::track<4>(device::volta_v100(), h, opt),
               std::invalid_argument);
}

// --- dry-run / functional schedule equivalence -------------------------------

TEST(PathTracker, DryRunPricesTheFunctionalSchedule) {
  auto h = rational_homotopy<4>(8, 2.0, 0x7ac3, nullptr);
  auto opt = base_options(4);
  auto res = path::track<4>(device::volta_v100(), h, opt);
  ASSERT_FALSE(res.steps.empty());
  // Every step stayed on its single d2 rung, so the recorded iteration
  // counts replay the exact launch schedule in dry-run mode.
  for (const auto& s : res.steps) {
    ASSERT_EQ(s.rungs.size(), 1u);
    device::Device dry(device::volta_v100(), md::Precision::d2,
                       device::ExecMode::dry_run);
    path::track_step_dry<md::dd_real>(dry, 8, h.a_terms(), h.b_terms(),
                                      opt.order, opt.tile, s.predict_evals,
                                      s.residual_evals, s.correction_solves);
    EXPECT_TRUE(dry.analytic_total() == s.rungs[0].analytic);
    EXPECT_DOUBLE_EQ(dry.kernel_ms(), s.rungs[0].kernel_ms);
    EXPECT_DOUBLE_EQ(dry.wall_ms(), s.rungs[0].wall_ms);
    EXPECT_EQ(dry.measured_total().md_ops(), 0);
  }
}

TEST(PathTracker, WholePathDryPricingIsDeterministic) {
  auto opt = base_options(4);
  auto d1 = path::track_dry<4>(device::volta_v100(), 8, 2, 1, opt);
  auto d2 = path::track_dry<4>(device::volta_v100(), 8, 2, 1, opt);
  EXPECT_TRUE(d1.analytic == d2.analytic);
  EXPECT_DOUBLE_EQ(d1.kernel_ms, d2.kernel_ms);
  EXPECT_EQ(d1.launches, d2.launches);
  EXPECT_GT(d1.kernel_ms, 0.0);
  EXPECT_EQ(d1.precision, md::Precision::d2);
  // A larger dimension must price strictly higher.
  auto d3 = path::track_dry<4>(device::volta_v100(), 16, 2, 1, opt);
  EXPECT_GT(d3.kernel_ms, d1.kernel_ms);
}

namespace {

// The expected schedule of a whole path priced by hand at one precision:
// dry_steps single-rung steps, each with one predictor evaluation and
// dry_corrector_rounds correction rounds.
template <int L>
double expected_path_wall_ms(const device::DeviceSpec& spec, int m,
                             int aterms, int bterms,
                             const path::TrackOptions& opt) {
  device::Device dev(spec, md::Precision(L), device::ExecMode::dry_run);
  for (int s = 0; s < path::dry_steps; ++s)
    path::track_step_dry<mdreal<L>>(dev, m, aterms, bterms, opt.order,
                                    opt.tile, 1,
                                    path::dry_corrector_rounds + 1,
                                    path::dry_corrector_rounds);
  return dev.wall_ms();
}

}  // namespace

TEST(PathTracker, WholePathDryPricingStartsAtTheFirstRung) {
  // track() starts a {3, 4} ladder at d3, so the whole-path price (what
  // LPT sharding and service admission charge) is the d3 schedule, not a
  // d2 one.
  auto h = rational_homotopy<4>(8, 2.0, 0x7ac3, nullptr);
  auto opt = base_options(4);
  opt.rungs = {3, 4};
  const auto& spec = device::volta_v100();
  const int at = h.a_terms(), bt = h.b_terms();
  const auto dry = path::track_dry<4>(spec, 8, at, bt, opt);
  EXPECT_EQ(dry.precision, md::Precision(3));
  EXPECT_DOUBLE_EQ(dry.wall_ms,
                   expected_path_wall_ms<3>(spec, 8, at, bt, opt));
  EXPECT_GT(dry.wall_ms, expected_path_wall_ms<2>(spec, 8, at, bt, opt));

  auto res = path::track<4>(spec, h, opt);
  ASSERT_FALSE(res.steps.empty());
  EXPECT_EQ(res.steps[0].rungs[0].precision, md::Precision(3));
  EXPECT_EQ(res.steps[0].rungs[0].device_precision, md::Precision(3));

  // The default ladder starts at d2, and a sequence whose rungs all lie
  // above the target is refused before any pricing.
  const auto def = base_options(4);
  EXPECT_DOUBLE_EQ(path::track_dry<4>(spec, 8, at, bt, def).wall_ms,
                   expected_path_wall_ms<2>(spec, 8, at, bt, def));
  opt.rungs = {8};
  EXPECT_THROW(path::track_dry<4>(spec, 8, at, bt, opt),
               std::invalid_argument);
}

// --- tally conservation: sequential vs parallelism=4 vs batched --------------

TEST(PathTracker, TallyConservationAcrossExecutionWidths) {
  blas::Vector<mdreal<4>> v;
  auto h = rational_homotopy<4>(8, 2.0, 0x7ac3, &v);
  auto opt = base_options(4);
  auto seq = path::track<4>(device::volta_v100(), h, opt);

  path::TrackOptions opt4 = opt;
  opt4.parallelism = 4;
  auto par = path::track<4>(device::volta_v100(), h, opt4);

  ASSERT_EQ(par.steps.size(), seq.steps.size());
  ASSERT_EQ(par.x.size(), seq.x.size());
  for (std::size_t i = 0; i < seq.x.size(); ++i)
    EXPECT_TRUE(blas::bit_identical(seq.x[i], par.x[i])) << "entry " << i;
  EXPECT_TRUE(seq.device_analytic() == par.device_analytic());
  EXPECT_TRUE(par.device_measured() == par.device_analytic());
  EXPECT_DOUBLE_EQ(seq.kernel_ms(), par.kernel_ms());

  // Batched: limb-identical to sequential, batch tally exactly the sum
  // of the per-path tallies across shards, for every pool width.
  std::vector<path::TrackProblem<4>> batch;
  for (std::uint64_t seed : {0x7ac3ull, 0x7ac4ull, 0x7ac5ull, 0x7ac6ull})
    batch.push_back(path::TrackProblem<4>::functional(
        rational_homotopy<4>(8, 2.0, seed, nullptr)));
  std::vector<path::TrackResult<4>> singles;
  for (const auto& p : batch)
    singles.push_back(path::track<4>(device::volta_v100(), p.homotopy, opt));

  for (int width : {1, 2, 3}) {
    for (auto policy : {core::ShardPolicy::round_robin,
                        core::ShardPolicy::greedy_by_modeled_time}) {
      path::BatchedTrackOptions bopt;
      bopt.track = opt;
      bopt.policy = policy;
      auto pool = core::DevicePool::homogeneous(device::volta_v100(), width);
      auto res = path::batched_track<4>(pool, batch, bopt);
      ASSERT_EQ(res.paths.size(), batch.size());

      md::OpTally sum;
      for (std::size_t i = 0; i < batch.size(); ++i) {
        const auto& pr = res.paths[i].result;
        ASSERT_EQ(pr.x.size(), singles[i].x.size());
        for (std::size_t j = 0; j < pr.x.size(); ++j)
          EXPECT_TRUE(blas::bit_identical(pr.x[j], singles[i].x[j]))
              << "width " << width << " path " << i << " entry " << j;
        EXPECT_TRUE(pr.device_analytic() == singles[i].device_analytic());
        EXPECT_TRUE(pr.device_measured() == pr.device_analytic());
        sum += pr.device_analytic();
      }
      EXPECT_TRUE(res.report.tally == sum);
      md::OpTally rows;
      for (const auto& row : res.report.rows) rows += row.tally;
      EXPECT_TRUE(res.report.tally == rows);
      md::OpTally paths;
      for (const auto& prow : res.report.paths) paths += prow.tally;
      EXPECT_TRUE(res.report.tally == paths);
      EXPECT_EQ(res.report.paths.size(), batch.size());
    }
  }
}

TEST(PathTracker, BatchedTrackShardsByTheResolvedLadderPrice) {
  // LPT on a V100 + RTX 2080 pool ranks and places the paths by their
  // whole-path price at the ladder's first rung.  The RTX 2080's weak
  // double precision costs it far more at d3 than at d2: at d2 the fifth
  // of five equal paths is cheaper on the idle RTX 2080, at d3 all five
  // stay on the V100.
  std::vector<path::TrackProblem<4>> batch;
  for (std::uint64_t k = 0; k < 5; ++k)
    batch.push_back(path::TrackProblem<4>::functional(
        rational_homotopy<4>(8, 2.0, 0x7ac3 + k, nullptr)));
  const int at = batch[0].homotopy.a_terms(), bt = batch[0].homotopy.b_terms();
  core::DevicePool pool;
  pool.slots = {&device::volta_v100(), &device::geforce_rtx2080()};
  path::BatchedTrackOptions bopt;
  bopt.track = base_options(4);
  bopt.policy = core::ShardPolicy::greedy_by_modeled_time;

  auto price = [&](const device::DeviceSpec& spec, std::vector<int> rungs) {
    path::TrackOptions o = bopt.track;
    o.rungs = std::move(rungs);
    return path::track_dry<4>(spec, 8, at, bt, o).wall_ms;
  };
  ASSERT_GT(5 * price(device::volta_v100(), {}),
            price(device::geforce_rtx2080(), {}));
  ASSERT_LT(5 * price(device::volta_v100(), {3, 4}),
            price(device::geforce_rtx2080(), {3, 4}));

  auto at_d2 = path::batched_track<4>(pool, batch, bopt);
  EXPECT_EQ(at_d2.shards, (std::vector<std::vector<int>>{{0, 1, 2, 3}, {4}}));
  bopt.rungs = {3, 4};
  auto at_d3 = path::batched_track<4>(pool, batch, bopt);
  EXPECT_EQ(at_d3.shards,
            (std::vector<std::vector<int>>{{0, 1, 2, 3, 4}, {}}));
  for (const auto& p : at_d3.paths) {
    ASSERT_FALSE(p.result.steps.empty());
    EXPECT_EQ(p.result.steps[0].rungs[0].precision, md::Precision(3));
  }
}

TEST(PathTracker, ReportPrintsPathTable) {
  std::vector<path::TrackProblem<4>> batch;
  batch.push_back(path::TrackProblem<4>::functional(
      rational_homotopy<4>(8, 2.0, 0x7ac3, nullptr)));
  path::BatchedTrackOptions bopt;
  bopt.track = base_options(4);
  auto pool = core::DevicePool::homogeneous(device::volta_v100(), 1);
  auto res = path::batched_track<4>(pool, batch, bopt);
  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  res.report.print(sink);
  std::fseek(sink, 0, SEEK_END);
  EXPECT_GT(std::ftell(sink), 0);
  std::fclose(sink);
}

// --- input validation --------------------------------------------------------

TEST(PathTracker, ValidatesOptionsWithThrownErrors) {
  auto h = rational_homotopy<4>(8, 2.0, 0x7ac3, nullptr);
  path::TrackOptions opt = base_options(3);  // 3 does not divide 8
  EXPECT_THROW(path::track<4>(device::volta_v100(), h, opt),
               std::invalid_argument);
  opt = base_options(4);
  opt.order = 0;
  EXPECT_THROW(path::track<4>(device::volta_v100(), h, opt),
               std::invalid_argument);
  opt = base_options(4);
  opt.t_end = opt.t_start;
  EXPECT_THROW(path::track<4>(device::volta_v100(), h, opt),
               std::invalid_argument);
  opt = base_options(4);
  opt.rungs = {8};  // the ladder would start above the target's 4 limbs
  EXPECT_THROW(path::track<4>(device::volta_v100(), h, opt),
               std::invalid_argument);

  std::vector<path::TrackProblem<4>> batch;
  batch.push_back(path::TrackProblem<4>::functional(h));
  path::BatchedTrackOptions bopt;
  bopt.track = base_options(4);
  core::DevicePool empty;
  EXPECT_THROW(path::batched_track<4>(empty, batch, bopt),
               std::invalid_argument);
  auto pool = core::DevicePool::homogeneous(device::volta_v100(), 1);
  bopt.rungs = {8};  // the batch-level override is held to the same rule
  EXPECT_THROW(path::batched_track<4>(pool, batch, bopt),
               std::invalid_argument);
}

TEST(PathTracker, BatchedTrackRejectsNegativeThreadsAndParallelismBelowOne) {
  std::vector<path::TrackProblem<4>> batch;
  batch.push_back(path::TrackProblem<4>::functional(
      rational_homotopy<4>(8, 2.0, 0x7ac3, nullptr)));
  path::BatchedTrackOptions bopt;
  bopt.track = base_options(4);
  auto pool = core::DevicePool::homogeneous(device::volta_v100(), 2);
  bopt.threads = -1;
  EXPECT_THROW(path::batched_track<4>(pool, batch, bopt),
               std::invalid_argument);
  bopt.threads = 0;
  bopt.parallelism = 0;
  EXPECT_THROW(path::batched_track<4>(pool, batch, bopt),
               std::invalid_argument);
}
