// The event-driven task-DAG engine (DESIGN.md §13): graph construction,
// makespan pricing, and — the load-bearing guarantee — DETERMINISM UNDER
// SCHEDULING CHAOS.  The stress tests below inject randomized per-node
// delays through DagRunOptions::delay_hook to scramble completion order
// across workers, then pin the two invariants the design argues by
// construction:
//
//   * bit-identity: every result limb matches the sequential fork-join
//     walk, at every width, under every completion order;
//   * exact accounting: measured == analytic per stage (the per-node
//     tallies fold back in program order), and the modeled schedule
//     (kernel_ms, launch counts) is policy-independent because all
//     declaring happens at graph-build time.
//
// Also covered: the lowest-node-id error-rethrow discipline, work
// stealing across device shards, and the dry-run makespan pricing that
// feeds the bench gate.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <span>
#include <stdexcept>
#include <thread>
#include <vector>

#include "blas/generate.hpp"
#include "core/block_toeplitz.hpp"
#include "core/dag_solve.hpp"
#include "core/least_squares.hpp"
#include "device/dag.hpp"
#include "device/dag_scheduler.hpp"
#include "support/test_support.hpp"
#include "util/thread_pool.hpp"

using namespace mdlsq;
using test_support::expect_stage_tallies_exact;
using test_support::make_dev;

namespace {

// Deterministic pseudo-random delay per (node, worker): no shared RNG
// state, so the hook itself cannot race.  Spread 0..120us.
void chaos_delay(int node, int worker) {
  const std::uint32_t h =
      (static_cast<std::uint32_t>(node) * 2654435761u) ^
      (static_cast<std::uint32_t>(worker) * 40503u);
  std::this_thread::sleep_for(std::chrono::microseconds(h % 120));
}

template <class T>
void expect_vector_bits(const blas::Vector<T>& a, const blas::Vector<T>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_TRUE(blas::bit_identical(a[i], b[i])) << "entry " << i;
}

template <class T>
void expect_matrix_bits(const blas::Matrix<T>& a, const blas::Matrix<T>& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < a.cols(); ++j)
      ASSERT_TRUE(blas::bit_identical(a(i, j), b(i, j)))
          << "element (" << i << "," << j << ")";
}

device::TaskNode node_ms(const char* label, double ms,
                         std::vector<int> deps = {},
                         device::TaskKind kind = device::TaskKind::kernel) {
  device::TaskNode n;
  n.label = label;
  n.kind = kind;
  n.modeled_ms = ms;
  n.deps = std::move(deps);
  return n;
}

}  // namespace

// --- graph construction ------------------------------------------------------

TEST(TaskGraph, EdgesMustPointBackward) {
  device::TaskGraph g;
  const int a = g.add(node_ms("a", 1.0));
  EXPECT_EQ(a, 0);
  EXPECT_THROW(g.add(node_ms("self", 1.0, {1})), std::invalid_argument);
  EXPECT_THROW(g.add(node_ms("fwd", 1.0, {7})), std::invalid_argument);
  EXPECT_THROW(g.add(node_ms("neg", 1.0, {-1})), std::invalid_argument);
  const int b = g.add(node_ms("b", 1.0, {a}));
  EXPECT_EQ(b, 1);
  EXPECT_EQ(g.size(), 2);
}

TEST(TaskGraph, SinksTrackOutDegree) {
  device::TaskGraph g;
  const int a = g.add(node_ms("a", 1.0));
  const int b = g.add(node_ms("b", 1.0, {a}));
  const int c = g.add(node_ms("c", 1.0, {a}));
  EXPECT_EQ(g.sinks(), (std::vector<int>{b, c}));
  const int d = g.add(node_ms("d", 1.0, {b, c}));
  EXPECT_EQ(g.sinks(), (std::vector<int>{d}));
}

TEST(TaskGraph, CriticalRanksOnDiamond) {
  // a(2) -> {b(3), c(5)} -> d(1): rank = own cost + longest path below.
  device::TaskGraph g;
  const int a = g.add(node_ms("a", 2.0));
  const int b = g.add(node_ms("b", 3.0, {a}));
  const int c = g.add(node_ms("c", 5.0, {a}));
  g.add(node_ms("d", 1.0, {b, c}));
  const auto rank = critical_ranks(g);
  EXPECT_DOUBLE_EQ(rank[3], 1.0);
  EXPECT_DOUBLE_EQ(rank[1], 4.0);
  EXPECT_DOUBLE_EQ(rank[2], 6.0);
  EXPECT_DOUBLE_EQ(rank[0], 8.0);
}

// --- makespan pricing --------------------------------------------------------

TEST(DagMakespan, DiamondOverlapsOnTwoLanes) {
  device::TaskGraph g;
  const int a = g.add(node_ms("a", 2.0));
  const int b = g.add(node_ms("b", 3.0, {a}));
  const int c = g.add(node_ms("c", 5.0, {a}));
  g.add(node_ms("d", 1.0, {b, c}));

  const auto one = device::dag_makespan(g, {1, 1});
  EXPECT_DOUBLE_EQ(one.serialized_ms, 11.0);
  EXPECT_DOUBLE_EQ(one.critical_path_ms, 8.0);
  EXPECT_DOUBLE_EQ(one.makespan_ms, 11.0);  // one lane serializes

  const auto two = device::dag_makespan(g, {1, 2});
  EXPECT_DOUBLE_EQ(two.serialized_ms, 11.0);
  EXPECT_DOUBLE_EQ(two.makespan_ms, 8.0);  // b overlaps c: critical path
}

TEST(DagMakespan, TransferLaneOverlapsCompute) {
  // Two independent chains transfer(4) -> kernel(6).  One compute lane
  // plus the wire: the second transfer hides under the first kernel.
  device::TaskGraph g;
  const int t0 =
      g.add(node_ms("t0", 4.0, {}, device::TaskKind::transfer));
  g.add(node_ms("k0", 6.0, {t0}));
  const int t1 =
      g.add(node_ms("t1", 4.0, {}, device::TaskKind::transfer));
  g.add(node_ms("k1", 6.0, {t1}));

  const auto r = device::dag_makespan(g, {1, 1});
  EXPECT_DOUBLE_EQ(r.serialized_ms, 20.0);
  // t0 [0,4), k0 [4,10); t1 [0,4) on the wire in parallel, k1 [10,16).
  EXPECT_DOUBLE_EQ(r.makespan_ms, 16.0);
}

TEST(DagMakespan, RejectsDegenerateLaneCounts) {
  device::TaskGraph g;
  g.add(node_ms("a", 1.0));
  EXPECT_THROW(device::dag_makespan(g, {0, 1}), std::invalid_argument);
  EXPECT_THROW(device::dag_makespan(g, {1, 0}), std::invalid_argument);
}

// --- run_graph core ----------------------------------------------------------

TEST(RunGraph, ExecutesRespectingEdgesAtEveryWidth) {
  util::ThreadPool pool(3);
  for (int width : {1, 2, 4}) {
    SCOPED_TRACE("width " + std::to_string(width));
    // Chain a -> b -> c interleaved with independent singles; each body
    // records a sequence stamp so edge order is observable.
    device::TaskGraph g;
    std::atomic<int> clock{0};
    std::vector<int> stamp(5, -1);
    auto body = [&](int slot) { stamp[std::size_t(slot)] = clock++; };
    const int a = g.add([&] {
      auto n = node_ms("a", 1.0);
      n.body = [&body] { body(0); };
      return n;
    }());
    const int b = g.add([&] {
      auto n = node_ms("b", 1.0, {a});
      n.body = [&body] { body(1); };
      return n;
    }());
    g.add([&] {
      auto n = node_ms("c", 1.0, {b});
      n.body = [&body] { body(2); };
      return n;
    }());
    g.add([&] {
      auto n = node_ms("x", 1.0);
      n.body = [&body] { body(3); };
      return n;
    }());
    g.add([&] {
      auto n = node_ms("y", 1.0);
      n.body = [&body] { body(4); };
      return n;
    }());

    device::DagRunOptions opt;
    opt.pool = width > 1 ? &pool : nullptr;
    opt.width = width;
    opt.delay_hook = chaos_delay;
    const auto stats = device::run_graph(g, opt);
    EXPECT_EQ(stats.executed, 5);
    for (int s : stamp) EXPECT_GE(s, 0);
    EXPECT_LT(stamp[0], stamp[1]);
    EXPECT_LT(stamp[1], stamp[2]);
  }
}

TEST(RunGraph, LowestNodeIdErrorWinsDeterministically) {
  util::ThreadPool pool(3);
  device::TaskGraph g;
  // Two failing roots; whichever finishes first, id 0's error must win.
  auto f0 = node_ms("fail0", 1.0);
  f0.body = [] { throw std::runtime_error("first declared"); };
  g.add(std::move(f0));
  auto f1 = node_ms("fail1", 1.0);
  f1.body = [] { throw std::runtime_error("second declared"); };
  g.add(std::move(f1));

  device::DagRunOptions opt;
  opt.pool = &pool;
  opt.width = 4;
  opt.delay_hook = chaos_delay;
  try {
    device::run_graph(g, opt);
    FAIL() << "expected the node error to propagate";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "first declared");
  }
}

TEST(RunGraph, StealsAcrossDeviceShards) {
  // All nodes pinned to shard 0 while two workers run over two shards:
  // worker 1's home queue is always empty, so every node it executes is
  // a steal.  With enough nodes and injected delays both workers run.
  util::ThreadPool pool(1);
  device::TaskGraph g;
  std::atomic<int> ran{0};
  for (int i = 0; i < 64; ++i) {
    auto n = node_ms("n", 1.0);
    n.device = 0;
    n.body = [&ran] { ran++; };
    g.add(std::move(n));
  }
  device::DagRunOptions opt;
  opt.pool = &pool;
  opt.width = 2;
  opt.devices = 2;
  opt.delay_hook = chaos_delay;
  const auto stats = device::run_graph(g, opt);
  EXPECT_EQ(ran.load(), 64);
  EXPECT_EQ(stats.executed, 64);
  EXPECT_GE(stats.steals, 0);  // counted, never negative
}

// --- determinism stress: the staged least-squares pipeline -------------------

namespace {

template <class T>
void stress_least_squares(int rows, int cols, int tile, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  auto a = blas::random_matrix<T>(rows, cols, gen);
  auto b = blas::random_vector<T>(rows, gen);

  // Sequential fork-join reference.
  auto ref_dev = make_dev<T>(device::ExecMode::functional);
  auto ref = core::least_squares(ref_dev, a, b, tile);

  util::ThreadPool pool(3);
  for (int width : {1, 4}) {
    SCOPED_TRACE("dag width " + std::to_string(width));
    auto dev = make_dev<T>(device::ExecMode::functional);
    if (width > 1) dev.set_parallelism(&pool, width);
    auto res =
        core::least_squares(dev, a, b, tile, core::SchedulePolicy::dag);

    // Bit-identity regardless of completion order.
    expect_matrix_bits(res.factors.q, ref.factors.q);
    expect_matrix_bits(res.factors.r, ref.factors.r);
    expect_vector_bits(res.x, ref.x);
    // Exact accounting: per-node tallies folded in program order.
    expect_stage_tallies_exact(dev);
    // The modeled schedule is declaration-driven, policy-independent.
    EXPECT_DOUBLE_EQ(dev.kernel_ms(), ref_dev.kernel_ms());
    EXPECT_EQ(dev.launches(), ref_dev.launches());
    EXPECT_TRUE(dev.analytic_total() == ref_dev.analytic_total());
  }
}

}  // namespace

TEST(DagStress, LeastSquaresDoubleDouble) {
  stress_least_squares<md::dd_real>(24, 12, 4, 0xda61);
}

TEST(DagStress, LeastSquaresComplexQuadDouble) {
  stress_least_squares<md::qd_complex>(16, 8, 4, 0xda62);
}

// --- determinism stress: batched correction solves ---------------------------

TEST(DagStress, BatchCorrectionSolvesMatchForkJoinUnderChaos) {
  using T = md::qd_real;
  std::mt19937_64 gen(0xda63);
  const int m = 12, tile = 4, solves = 24;
  std::vector<blas::Matrix<T>> blocks;
  blocks.push_back(blas::random_matrix<T>(m, m, gen));
  blocks.push_back(blas::random_matrix<T>(m, m, gen));

  auto dev_ref = make_dev<T>(device::ExecMode::functional);
  core::BlockToeplitzSolver<T> solver(dev_ref, blocks, tile);
  std::vector<blas::Vector<T>> residuals;
  for (int k = 0; k < solves; ++k)
    residuals.push_back(blas::random_vector<T>(m, gen));

  // Fork-join reference on the same device (factors resident there).
  const auto ref = core::batch_correction_solves<T>(
      dev_ref, solver.staged_q(), solver.staged_rtop(), residuals, m, m,
      tile);
  ASSERT_EQ(ref.size(), residuals.size());
  for (const auto& x : ref) ASSERT_EQ(static_cast<int>(x.size()), m);

  util::ThreadPool pool(3);
  for (int lanes : {1, 4}) {
    SCOPED_TRACE("lanes " + std::to_string(lanes));
    auto dev = make_dev<T>(device::ExecMode::functional);
    core::BlockToeplitzSolver<T> s2(dev, blocks, tile);
    core::DagSolveOptions opt;
    opt.schedule = core::SchedulePolicy::dag;
    opt.lanes = lanes;
    opt.pool = lanes > 1 ? &pool : nullptr;
    opt.delay_hook = chaos_delay;
    const auto got = core::batch_correction_solves<T>(
        dev, s2.staged_q(), s2.staged_rtop(), residuals, m, m, tile, opt);
    ASSERT_EQ(got.size(), ref.size());
    for (std::size_t k = 0; k < ref.size(); ++k) {
      SCOPED_TRACE("solve " + std::to_string(k));
      expect_vector_bits(got[k], ref[k]);
    }
    expect_stage_tallies_exact(dev);
    EXPECT_DOUBLE_EQ(dev.kernel_ms(), dev_ref.kernel_ms());
    EXPECT_EQ(dev.launches(), dev_ref.launches());
  }
}

TEST(DagSolve, RejectsNonFunctionalDevice) {
  using T = md::dd_real;
  auto dry = make_dev<T>(device::ExecMode::dry_run);
  device::Staged2D<T> q(4, 4), rtop(4, 4);
  std::vector<blas::Vector<T>> r;
  EXPECT_THROW(
      core::batch_correction_solves<T>(dry, q, rtop, r, 4, 4, 2),
      std::invalid_argument);
}

// --- dry-run pricing: the DAG schedule must beat fork-join -------------------

TEST(DagPricing, BatchedSolveChainsOverlapAcrossLanes) {
  using T = md::dd_real;
  auto dry = make_dev<T>(device::ExecMode::dry_run);
  const auto r =
      core::batch_correction_solves_dry<T>(dry, 24, 64, 16, 4, 4);
  EXPECT_GT(r.serialized_ms, 0.0);
  EXPECT_GE(r.critical_path_ms, 0.0);
  EXPECT_LE(r.critical_path_ms, r.makespan_ms + 1e-12);
  EXPECT_LE(r.makespan_ms, r.serialized_ms + 1e-12);
  // 24 independent chains over 4 lanes must genuinely overlap.
  EXPECT_GT(r.serialized_ms / r.makespan_ms, 1.5);
}

TEST(DagPricing, LeastSquaresPipelinePricesBelowSerialized) {
  using T = md::dd_real;
  auto dry = make_dev<T>(device::ExecMode::dry_run);
  const auto p = core::least_squares_dag_dry<T>(dry, 96, 48, 8, 4);
  EXPECT_GT(p.serialized_ms, 0.0);
  EXPECT_LE(p.critical_path_ms, p.makespan_ms + 1e-12);
  // The wide waves of the trailing update expose real overlap.
  EXPECT_LT(p.makespan_ms, p.serialized_ms);
  // Declaring through GraphExec accumulates the same modeled totals as
  // the fork-join dry walk.
  auto dry2 = make_dev<T>(device::ExecMode::dry_run);
  core::least_squares_dry<T>(dry2, 96, 48, 8);
  EXPECT_DOUBLE_EQ(dry.kernel_ms(), dry2.kernel_ms());
  EXPECT_EQ(dry.launches(), dry2.launches());
  EXPECT_TRUE(dry.analytic_total() == dry2.analytic_total());
}
