// Staged-resident execution conformance (DESIGN.md §8).
//
// The staged (limb-planar) layout is the canonical kernel substrate: the
// least-squares pipeline stages its inputs once, keeps Q, R and every
// intermediate device-resident across launches, and unstages only final
// results.  This suite pins the refactor's contract — it moves MEMORY,
// not MATH:
//
//   * staged-vs-host sweep: the staged-resident pipeline is limb-
//     identical (Q, R and x, every limb, NaN-safe bitwise) to the
//     interleaved recomposition — the pre-resident data flow rebuilt
//     from public pieces (blocked QR to host factors, Q^H b against the
//     host AoS Q, host triangle copy, re-staged back substitution) —
//     over parallelism {1,4} x precisions {d2,d4,d8} x real/complex;
//   * exact tally conservation (measured == analytic per stage) on the
//     staged path, and dry/functional schedule equivalence including
//     the TRANSFER model: same analytic totals, launch counts, kernel
//     times and wall times;
//   * the staged factor-reusing correction solve (block Toeplitz
//     solve_diag_on, and core::ResidentQr on the adaptive ladder's tall
//     resident-pipeline factors) bit-matches the host solve over
//     blocked_qr's factors of the same matrix;
//   * batched and path-tracker spot checks: both inherit the staged
//     substrate transparently;
//   * md::planes plane kernels (fill, copy): exact, zero multiple-double
//     tally;
//   * Staged2D/Staged1D/StagedView edge cases: 0xN shapes, complex
//     round trips, sizeof(double) bytes, throw-on-mismatch staging and
//     the promoted std::invalid_argument validation of blas::Matrix and
//     the gemm shape checks.
#include <gtest/gtest.h>

#include <random>
#include <span>
#include <vector>

#include "blas/generate.hpp"
#include "blas/panel.hpp"
#include "blas/staged_view.hpp"
#include "core/batched_lsq.hpp"
#include "core/block_toeplitz.hpp"
#include "core/least_squares.hpp"
#include "md/planes.hpp"
#include "path/generate.hpp"
#include "path/tracker.hpp"
#include "support/conformance.hpp"
#include "support/test_support.hpp"
#include "util/thread_pool.hpp"

using namespace mdlsq;
using test_support::expect_stage_tallies_exact;
using test_support::make_dev;
using test_support::ShapeCase;
using test_support::shape_sweep;

namespace {

template <class T>
void expect_matrix_bits(const blas::Matrix<T>& a, const blas::Matrix<T>& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < a.cols(); ++j)
      ASSERT_TRUE(blas::bit_identical(a(i, j), b(i, j)))
          << "element (" << i << "," << j << ")";
}

template <class T>
void expect_vector_bits(const blas::Vector<T>& a, const blas::Vector<T>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_TRUE(blas::bit_identical(a[i], b[i])) << "entry " << i;
}

// The interleaved recomposition: the exact pre-resident least-squares
// data flow, rebuilt from public pieces — host factors out of the QR,
// Q^H b against the host AoS Q, a host copy of R's leading triangle,
// and a back substitution that re-stages it.  The staged-resident
// pipeline must reproduce it limb for limb.
template <class T>
struct InterleavedLsq {
  blas::Vector<T> x;
  core::QrFactors<T> factors;
};

template <class T>
InterleavedLsq<T> lsq_interleaved(device::Device& dev,
                                  const blas::Matrix<T>& a,
                                  const blas::Vector<T>& b, int tile) {
  const int M = a.rows(), C = a.cols();
  InterleavedLsq<T> out;
  out.factors = core::blocked_qr(dev, a, tile);
  blas::Vector<T> y(static_cast<std::size_t>(C));
  for (int j = 0; j < C; ++j) {
    T s{};
    for (int i = 0; i < M; ++i)
      s += blas::conj_of(out.factors.q(i, j)) * b[static_cast<std::size_t>(i)];
    y[static_cast<std::size_t>(j)] = s;
  }
  blas::Matrix<T> r_top(C, C);
  for (int i = 0; i < C; ++i)
    for (int j = i; j < C; ++j) r_top(i, j) = out.factors.r(i, j);
  out.x = core::tiled_back_sub(dev, r_top, y, C / tile, tile);
  return out;
}

template <class T>
void check_staged_vs_host(const ShapeCase& c) {
  SCOPED_TRACE("staged " + c.label());
  std::mt19937_64 gen(c.seed);
  auto a = blas::random_matrix<T>(c.rows, c.cols, gen);
  auto b = blas::random_vector<T>(c.rows, gen);

  // The interleaved (pre-resident) recomposition, sequential.
  auto ref_dev = make_dev<T>(device::ExecMode::functional);
  auto ref = lsq_interleaved<T>(ref_dev, a, b, c.tile);

  util::ThreadPool pool(3);
  for (int width : {1, 4}) {
    SCOPED_TRACE("parallelism " + std::to_string(width));
    auto dev = make_dev<T>(device::ExecMode::functional);
    if (width > 1) dev.set_parallelism(&pool, width);
    auto res = core::least_squares(dev, a, b, c.tile);

    // Limb-identical Q, R, x at every width.
    expect_matrix_bits(res.factors.q, ref.factors.q);
    expect_matrix_bits(res.factors.r, ref.factors.r);
    expect_vector_bits(res.x, ref.x);

    // Exact tally conservation on the staged-resident path.
    expect_stage_tallies_exact(dev);

    // Dry/functional schedule equivalence including the transfer model:
    // the dry walk prices the identical stage()/unstage() movement.
    auto dry = make_dev<T>(device::ExecMode::dry_run);
    core::least_squares_dry<T>(dry, c.rows, c.cols, c.tile);
    EXPECT_TRUE(dry.analytic_total() == dev.analytic_total());
    EXPECT_EQ(dry.launches(), dev.launches());
    EXPECT_EQ(dry.bytes_total(), dev.bytes_total());
    EXPECT_DOUBLE_EQ(dry.kernel_ms(), dev.kernel_ms());
    EXPECT_DOUBLE_EQ(dry.wall_ms(), dev.wall_ms());
  }
}

}  // namespace

// --- staged-vs-host conformance sweep ---------------------------------------

TEST(StagedExecConformance, SweepDoubleDouble) {
  for (const auto& c : shape_sweep(0x57a0ed1, 4, 8, 3, 12))
    check_staged_vs_host<md::dd_real>(c);
}
TEST(StagedExecConformance, SweepQuadDouble) {
  for (const auto& c : shape_sweep(0x57a0ed2, 3, 8, 2, 8))
    check_staged_vs_host<md::qd_real>(c);
}
TEST(StagedExecConformance, SweepOctoDouble) {
  for (const auto& c : shape_sweep(0x57a0ed3, 2, 6, 2, 6))
    check_staged_vs_host<md::od_real>(c);
}
TEST(StagedExecConformance, SweepComplexDoubleDouble) {
  for (const auto& c : shape_sweep(0x57a0ed4, 3, 8, 2, 8))
    check_staged_vs_host<md::dd_complex>(c);
}
TEST(StagedExecConformance, SweepComplexQuadDouble) {
  for (const auto& c : shape_sweep(0x57a0ed5, 2, 6, 2, 6))
    check_staged_vs_host<md::qd_complex>(c);
}
TEST(StagedExecConformance, SweepComplexOctoDouble) {
  for (const auto& c : shape_sweep(0x57a0ed6, 1, 4, 2, 4))
    check_staged_vs_host<md::od_complex>(c);
}

// --- the staged factor-reusing correction solve -----------------------------

namespace {

// The adaptive ladder's shape of the resident solve: tall factors kept
// resident by the resident least-squares pipeline and trimmed to c
// columns by ResidentQr::from_staged must solve limb-identically to the
// host reference over blocked_qr's factors of the same matrix, with
// exact stage tallies.
template <class T>
void check_resident_tall_solve(int m, int c, int tile, std::uint64_t seed) {
  SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(c));
  std::mt19937_64 gen(seed);
  auto a = blas::random_matrix<T>(m, c, gen);
  auto b = blas::random_vector<T>(m, gen);
  auto fdev = make_dev<T>(device::ExecMode::functional);
  const core::QrFactors<T> f = core::blocked_qr(fdev, a, tile);
  auto sdev = make_dev<T>(device::ExecMode::functional);
  const auto resident = core::ResidentQr<T>::from_staged(
      core::least_squares_resident_run<T>(sdev, &a, &b, m, c, tile).factors,
      c);
  ASSERT_EQ(resident.rows(), m);
  ASSERT_EQ(resident.cols(), c);
  ASSERT_EQ(resident.q.cols(), c);

  for (int trial = 0; trial < 3; ++trial) {
    auto r = blas::random_vector<T>(m, gen);
    auto host = core::least_squares_with_factors(f, std::span<const T>(r));
    auto dev = make_dev<T>(device::ExecMode::functional);
    auto staged = resident.solve_on(dev, std::span<const T>(r), tile);
    expect_vector_bits(staged, host);
    expect_stage_tallies_exact(dev);
  }
}

}  // namespace

TEST(StagedExec, StagedCorrectionSolveMatchesHostFactors) {
  // The Toeplitz solver's square factors, resident from its device
  // factorization, against the host reference over blocked_qr's factors.
  using T = md::qd_real;
  std::mt19937_64 gen(0xc0ffee);
  const int m = 12, tile = 4;
  std::vector<blas::Matrix<T>> blocks;
  blocks.push_back(blas::random_matrix<T>(m, m, gen));
  blocks.push_back(blas::random_matrix<T>(m, m, gen));
  auto fdev = make_dev<T>(device::ExecMode::functional);
  const core::QrFactors<T> f = core::blocked_qr(fdev, blocks[0], tile);
  auto sdev = make_dev<T>(device::ExecMode::functional);
  core::BlockToeplitzSolver<T> solver(sdev, std::move(blocks), tile);

  for (int trial = 0; trial < 3; ++trial) {
    auto r = blas::random_vector<T>(m, gen);
    auto host = core::least_squares_with_factors(f, std::span<const T>(r));
    auto dev = make_dev<T>(device::ExecMode::functional);
    auto staged = solver.solve_diag_on(dev, std::span<const T>(r), tile);
    expect_vector_bits(staged, host);
    expect_stage_tallies_exact(dev);
  }

  check_resident_tall_solve<md::dd_real>(24, 16, 8, 0xc0ffe1);
  check_resident_tall_solve<md::qd_real>(32, 8, 4, 0xc0ffe2);
}

// --- batched spot check ------------------------------------------------------

TEST(StagedExec, BatchedSolveInheritsStagedSubstrate) {
  using T = md::dd_real;
  std::mt19937_64 gen(0xba7c4);
  std::vector<core::BatchProblem<T>> batch;
  const int shapes[][2] = {{16, 8}, {20, 12}, {12, 12}};
  for (const auto& s : shapes)
    batch.push_back(core::BatchProblem<T>::functional(
        blas::random_matrix<T>(s[0], s[1], gen),
        blas::random_vector<T>(s[0], gen)));

  core::BatchedLsqOptions opt;
  opt.tile = 4;
  auto pool = core::DevicePool::homogeneous(device::volta_v100(), 2);
  auto res = core::batched_least_squares<T>(pool, batch, opt);

  for (std::size_t i = 0; i < batch.size(); ++i) {
    auto dev = make_dev<T>(device::ExecMode::functional);
    auto seq = core::least_squares(dev, batch[i].a, batch[i].b, opt.tile);
    expect_vector_bits(res.problems[i].x, seq.x);
    EXPECT_TRUE(res.problems[i].measured == res.problems[i].analytic);
  }
}

// --- path-tracker spot check -------------------------------------------------

TEST(StagedExec, PathTrackerInheritsStagedSubstrate) {
  using T = md::dd_real;
  blas::Vector<T> v;
  auto h = path::rational_path_homotopy<T>(8, 2.0, 0x7e57, &v);
  path::TrackOptions opt;
  opt.tile = 4;
  opt.tol = 1e-20;
  auto res = path::track<2>(device::volta_v100(), h, opt);
  EXPECT_TRUE(res.converged);
  for (const auto& s : res.steps)
    for (const auto& r : s.rungs)
      EXPECT_TRUE(r.measured == r.analytic)
          << "rung " << md::name_of(r.precision) << " tally mismatch";
  // x(1) = 2 v for the rational family, to the requested tolerance (with
  // the conformance suite's slack for the condition estimate).
  double xnorm = 1.0, worst = 0.0;
  for (const auto& e : v) xnorm = std::max(xnorm, std::fabs(e.to_double()));
  for (std::size_t i = 0; i < v.size(); ++i)
    worst = std::max(
        worst, std::fabs((res.x[i] - v[i] * T(2.0)).to_double()));
  EXPECT_LE(worst, 1e3 * opt.tol * xnorm);
}

// --- md::planes plane kernels ------------------------------------------------

TEST(Planes, FillCopyAreExactAndTallyFree) {
  std::mt19937_64 gen(12);
  std::uniform_real_distribution<double> d(-4.0, 4.0);
  std::vector<double> x(33), y(33);
  for (double& v : x) v = d(gen);
  md::OpTally t;
  {
    md::ScopedTally scope(t);
    md::planes::fill(y, 0.25);
    for (double v : y) EXPECT_EQ(v, 0.25);
    md::planes::copy(x, y);
  }
  EXPECT_EQ(t, md::planes::tally());  // empty: below Table 1 granularity
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(y[i], x[i]);
}

TEST(Planes, MismatchedSpansThrow) {
  std::vector<double> b(5), s(4);
  EXPECT_THROW(md::planes::copy(b, s), std::invalid_argument);
}

// --- staged container edge cases ---------------------------------------------

TEST(StagedEdge, BytesUseSizeofDouble) {
  device::Staged2D<md::qd_real> s(3, 4);
  EXPECT_EQ(s.bytes(),
            static_cast<std::int64_t>(3 * 4 * 4 * sizeof(double)));
  device::Staged2D<md::dd_complex> z(2, 5);
  EXPECT_EQ(z.bytes(),
            static_cast<std::int64_t>(2 * 5 * 2 * 2 * sizeof(double)));
}

TEST(StagedEdge, EmptyShapesRoundTrip) {
  for (auto [r, c] : {std::pair{0, 5}, std::pair{5, 0}, std::pair{0, 0}}) {
    device::Staged2D<md::dd_real> s(r, c);
    EXPECT_TRUE(s.empty());
    EXPECT_EQ(s.bytes(), 0);
    auto m = s.to_host();
    EXPECT_EQ(m.rows(), r);
    EXPECT_EQ(m.cols(), c);
    auto back = device::Staged2D<md::dd_real>::from_host(m);
    EXPECT_EQ(back.rows(), r);
    EXPECT_EQ(back.cols(), c);
  }
  device::Staged1D<md::qd_real> v(0);
  EXPECT_EQ(v.size(), 0);
  EXPECT_EQ(v.to_host().size(), 0u);
}

TEST(StagedEdge, ComplexRoundTripThroughViews) {
  using Z = md::qd_complex;
  std::mt19937_64 gen(21);
  auto m = blas::random_matrix<Z>(4, 3, gen);
  auto s = device::Staged2D<Z>::from_host(m);
  const auto v = s.view(1, 1, 3, 2);
  for (int i = 0; i < 3; ++i)
    for (int j = 0; j < 2; ++j)
      EXPECT_TRUE(blas::bit_identical(v.get(i, j), m(1 + i, 1 + j)));
  blas::Matrix<Z> out(4, 3);
  s.store_host(out);
  expect_matrix_bits(out, m);
}

TEST(StagedEdge, ShapeMismatchesThrow) {
  using T = md::dd_real;
  EXPECT_THROW(device::Staged2D<T>(-1, 2), std::invalid_argument);
  device::Staged2D<T> s(3, 3);
  blas::Matrix<T> wrong(2, 3);
  EXPECT_THROW(s.assign_host(wrong), std::invalid_argument);
  EXPECT_THROW(s.store_host(wrong), std::invalid_argument);
  EXPECT_THROW(s.plane_span(99), std::invalid_argument);
  EXPECT_THROW(s.view(0, 0, 4, 3), std::invalid_argument);
  EXPECT_THROW(s.view().block(1, 1, 3, 3), std::invalid_argument);
  EXPECT_THROW(s.view().row_segment(0, 0, 2, 2), std::invalid_argument);
  device::Staged1D<T> v(4);
  blas::Vector<T> w(3);
  EXPECT_THROW(v.assign_host(w), std::invalid_argument);
  EXPECT_THROW(v.store_host(w), std::invalid_argument);
}

TEST(StagedEdge, PromotedValidationThrows) {
  using T = md::dd_real;
  EXPECT_THROW(blas::Matrix<T>(-1, 3), std::invalid_argument);
  blas::Matrix<T> a(2, 3), b(2, 3);
  blas::Vector<T> x(2);
  EXPECT_THROW(blas::gemv(a, std::span<const T>(x)), std::invalid_argument);
  EXPECT_THROW(blas::gemm(a, b), std::invalid_argument);
  EXPECT_THROW(blas::gemm_adjoint_b(a, a.transposed()),
               std::invalid_argument);
  EXPECT_THROW(blas::block_range(10, 4, 7), std::invalid_argument);
}
