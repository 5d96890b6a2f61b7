// Batched multi-device least squares: bit-identical agreement with
// sequential single-problem solves, determinism across pool widths and
// sharding policies, tally conservation, the 8-problems-on-4-devices
// sharding contract, greedy load balancing and the shared LPT assigner's
// sort key, every direct item's wall time equal to its LPT price, thrown
// validation errors, and the host thread pool underneath it all.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "blas/generate.hpp"
#include "core/batched_lsq.hpp"
#include "support/test_support.hpp"
#include "util/thread_pool.hpp"

using namespace mdlsq;
using core::BatchedLsqOptions;
using core::BatchProblem;
using core::DevicePool;
using core::ShardPolicy;
using test_support::make_dev;

namespace {

// A deterministic batch of `n` problems with varied shapes.  Tiles must
// divide the column counts (least_squares contract).
template <class T>
std::vector<BatchProblem<T>> make_batch(int n, unsigned seed) {
  const int shapes[][3] = {  // {rows, cols, tile}
      {16, 16, 8}, {24, 16, 4}, {32, 32, 8}, {16, 8, 4},
      {40, 24, 8}, {24, 24, 4}, {48, 32, 16}, {20, 12, 4},
  };
  std::mt19937_64 gen(seed);
  std::vector<BatchProblem<T>> batch;
  for (int i = 0; i < n; ++i) {
    const auto& s = shapes[i % 8];
    batch.push_back(BatchProblem<T>::functional(
        blas::random_matrix<T>(s[0], s[1], gen),
        blas::random_vector<T>(s[0], gen)));
  }
  return batch;
}

// All problems in make_batch use tiles dividing their column counts; the
// batched driver takes ONE tile, so use a common divisor.
constexpr int kTile = 4;

template <class T>
bool bitwise_equal(const blas::Vector<T>& a, const blas::Vector<T>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    for (int l = 0; l < blas::scalar_traits<T>::limbs; ++l) {
      if constexpr (blas::is_complex_v<T>) {
        if (a[i].re.limb(l) != b[i].re.limb(l) ||
            a[i].im.limb(l) != b[i].im.limb(l))
          return false;
      } else {
        if (a[i].limb(l) != b[i].limb(l)) return false;
      }
    }
  return true;
}

// The sequential baseline: each problem solved alone on a fresh device.
template <class T>
std::vector<core::BatchedProblemResult<T>> sequential_solves(
    const std::vector<BatchProblem<T>>& batch) {
  std::vector<core::BatchedProblemResult<T>> out;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    auto dev = make_dev<T>(device::ExecMode::functional);
    core::BatchedProblemResult<T> r;
    r.problem = static_cast<int>(i);
    auto res = core::least_squares(dev, batch[i].a, batch[i].b, kTile);
    r.x = std::move(res.x);
    r.analytic = dev.analytic_total();
    r.measured = dev.measured_total();
    r.kernel_ms = dev.kernel_ms();
    r.wall_ms = dev.wall_ms();
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace

TEST(BatchedLsq, BitIdenticalToSequentialAcrossPoolWidthsAndPolicies) {
  using T = md::dd_real;
  auto batch = make_batch<T>(6, 2024);
  auto seq = sequential_solves<T>(batch);

  for (int width : {1, 2, 3, 4}) {
    for (auto policy :
         {ShardPolicy::round_robin, ShardPolicy::greedy_by_modeled_time}) {
      BatchedLsqOptions opt;
      opt.tile = kTile;
      opt.policy = policy;
      auto pool = DevicePool::homogeneous(device::volta_v100(), width);
      auto res = core::batched_least_squares<T>(pool, batch, opt);
      ASSERT_EQ(res.problems.size(), batch.size());
      for (std::size_t i = 0; i < batch.size(); ++i) {
        EXPECT_TRUE(bitwise_equal(res.problems[i].x, seq[i].x))
            << "width " << width << " policy " << core::name_of(policy)
            << " problem " << i;
        EXPECT_TRUE(res.problems[i].analytic == seq[i].analytic);
        EXPECT_TRUE(res.problems[i].measured == seq[i].measured);
        EXPECT_DOUBLE_EQ(res.problems[i].kernel_ms, seq[i].kernel_ms);
      }
    }
  }
}

TEST(BatchedLsq, TallyConservation) {
  using T = md::qd_real;
  auto batch = make_batch<T>(5, 7);
  BatchedLsqOptions opt;
  opt.tile = kTile;
  auto pool = DevicePool::homogeneous(device::volta_v100(), 3);
  auto res = core::batched_least_squares<T>(pool, batch, opt);

  md::OpTally sum_analytic, sum_measured;
  for (const auto& p : res.problems) {
    sum_analytic += p.analytic;
    sum_measured += p.measured;
    EXPECT_TRUE(p.measured == p.analytic)
        << "per-problem measured/analytic mismatch, problem " << p.problem;
  }
  EXPECT_TRUE(res.report.tally == sum_analytic);
  EXPECT_TRUE(res.report.tally == sum_measured);

  md::OpTally sum_rows;
  double sum_kernel = 0;
  for (const auto& row : res.report.rows) {
    sum_rows += row.tally;
    sum_kernel += row.kernel_ms;
  }
  EXPECT_TRUE(res.report.tally == sum_rows);
  EXPECT_DOUBLE_EQ(res.report.kernel_ms, sum_kernel);
}

// The acceptance demo: 8 problems over 4 simulated devices.
TEST(BatchedLsq, EightProblemsOverFourDevicesShardAndConserve) {
  using T = md::dd_real;
  auto batch = make_batch<T>(8, 42);
  auto seq = sequential_solves<T>(batch);

  BatchedLsqOptions opt;
  opt.tile = kTile;
  opt.policy = ShardPolicy::round_robin;
  auto pool = DevicePool::homogeneous(device::volta_v100(), 4);
  auto res = core::batched_least_squares<T>(pool, batch, opt);

  // Every device serves exactly its round-robin residue class.
  ASSERT_EQ(res.shards.size(), 4u);
  for (int s = 0; s < 4; ++s)
    EXPECT_EQ(res.shards[s], (std::vector<int>{s, s + 4}));

  // The report names an assignment covering each problem exactly once.
  std::set<int> served;
  for (const auto& row : res.report.rows) {
    EXPECT_EQ(row.device >= 0 && row.device < 4, true);
    EXPECT_EQ(row.name, device::volta_v100().name);
    for (int i : row.problems) EXPECT_TRUE(served.insert(i).second);
  }
  EXPECT_EQ(served.size(), 8u);
  EXPECT_EQ(res.report.problem_count(), 8);

  // Aggregated tally equals the sum of the sequential runs.
  md::OpTally seq_sum;
  double seq_kernel = 0;
  for (const auto& p : seq) {
    seq_sum += p.analytic;
    seq_kernel += p.kernel_ms;
  }
  EXPECT_TRUE(res.report.tally == seq_sum);
  EXPECT_DOUBLE_EQ(res.report.kernel_ms, seq_kernel);

  // Devices run concurrently: the makespan is the slowest shard, which is
  // bounded by the total sequential time.
  double max_row = 0;
  for (const auto& row : res.report.rows)
    max_row = std::max(max_row, row.wall_ms);
  EXPECT_DOUBLE_EQ(res.report.makespan_ms, max_row);
  double seq_wall = 0;
  for (const auto& p : seq) seq_wall += p.wall_ms;
  EXPECT_LT(res.report.makespan_ms, seq_wall);
}

TEST(BatchedLsq, GreedyPolicyBeatsRoundRobinOnSkewedBatch) {
  using T = md::dd_real;
  // One big problem followed by small ones: round-robin pairs the big one
  // with a small one, greedy LPT isolates it.
  std::mt19937_64 gen(5);
  std::vector<BatchProblem<T>> batch;
  batch.push_back(BatchProblem<T>::functional(
      blas::random_matrix<T>(48, 48, gen), blas::random_vector<T>(48, gen)));
  for (int i = 0; i < 3; ++i)
    batch.push_back(BatchProblem<T>::functional(
        blas::random_matrix<T>(8, 8, gen), blas::random_vector<T>(8, gen)));

  auto pool = DevicePool::homogeneous(device::volta_v100(), 2);
  BatchedLsqOptions opt;
  opt.tile = kTile;
  opt.policy = ShardPolicy::round_robin;
  auto rr = core::batched_least_squares<T>(pool, batch, opt);
  opt.policy = ShardPolicy::greedy_by_modeled_time;
  auto greedy = core::batched_least_squares<T>(pool, batch, opt);

  // Greedy puts the big problem alone on one device.
  bool isolated = false;
  for (const auto& shard : greedy.shards)
    if (shard == std::vector<int>{0}) isolated = true;
  EXPECT_TRUE(isolated);
  EXPECT_LT(greedy.report.makespan_ms, rr.report.makespan_ms);
  // Same work either way.
  EXPECT_TRUE(greedy.report.tally == rr.report.tally);
}

// A direct item runs the resident pipeline (A, b in, x out; the factors
// are never unstaged), and the LPT pricer walks that same schedule dry,
// so every item's modeled wall time is exactly its price.  Against the
// least_squares pipeline, which also unstages Q and R, only the transfer
// differs: same answer, tallies and kernel time.
TEST(BatchedLsq, DirectItemWallEqualsItsLptPrice) {
  using T = md::qd_real;
  auto batch = make_batch<T>(4, 99);
  auto seq = sequential_solves<T>(batch);
  core::DevicePool pool;
  pool.slots = {&device::volta_v100(), &device::geforce_rtx2080()};
  BatchedLsqOptions opt;
  opt.tile = kTile;
  opt.policy = ShardPolicy::greedy_by_modeled_time;
  auto res = core::batched_least_squares<T>(pool, batch, opt);
  for (const auto& p : res.problems) {
    const auto i = static_cast<std::size_t>(p.problem);
    const auto& spec = *pool.slots[static_cast<std::size_t>(p.device)];
    EXPECT_EQ(p.wall_ms, core::detail::modeled_wall_ms<T>(spec, batch[i], opt))
        << "problem " << i;
    if (p.device == 0) {  // the sequential baseline ran on the V100
      EXPECT_TRUE(bitwise_equal(p.x, seq[i].x));
      EXPECT_TRUE(p.analytic == seq[i].analytic);
      EXPECT_DOUBLE_EQ(p.kernel_ms, seq[i].kernel_ms);
      EXPECT_LT(p.wall_ms, seq[i].wall_ms);
    }
  }
}

// The batch knobs are validated under NDEBUG too, before any work.
TEST(BatchedLsq, RejectsNegativeThreadsAndParallelismBelowOne) {
  using T = md::dd_real;
  auto batch = make_batch<T>(2, 13);
  auto pool = DevicePool::homogeneous(device::volta_v100(), 2);
  BatchedLsqOptions opt;
  opt.tile = kTile;
  opt.threads = -1;
  EXPECT_THROW(core::batched_least_squares<T>(pool, batch, opt),
               std::invalid_argument);
  opt.threads = 0;
  opt.parallelism = 0;
  EXPECT_THROW(core::batched_least_squares<T>(pool, batch, opt),
               std::invalid_argument);
}

// The adaptive ladder runs on real scalars only; a complex adaptive batch
// is refused with a thrown error in every build type.
TEST(BatchedLsq, ComplexAdaptiveBatchThrows) {
  using T = md::dd_complex;
  std::mt19937_64 gen(19);
  std::vector<BatchProblem<T>> batch;
  batch.push_back(BatchProblem<T>::functional(
      blas::random_matrix<T>(8, 4, gen), blas::random_vector<T>(8, gen)));
  auto pool = DevicePool::homogeneous(device::volta_v100(), 1);
  BatchedLsqOptions opt;
  opt.tile = kTile;
  opt.pipeline = core::BatchPipeline::adaptive;
  EXPECT_THROW(core::shard_assignment(pool, batch, opt),
               std::invalid_argument);
  EXPECT_THROW(core::batched_least_squares<T>(pool, batch, opt),
               std::invalid_argument);
}

// Every problem's shape is checked on the calling thread before pricing,
// in Release builds too, and the error names the offending problem.
TEST(BatchedLsq, BadProblemShapeThrowsNamingItsIndex) {
  using T = md::dd_real;
  auto pool = DevicePool::homogeneous(device::volta_v100(), 2);
  auto expect_names = [&](const std::vector<BatchProblem<T>>& batch,
                          const BatchedLsqOptions& opt, const char* what) {
    try {
      core::batched_least_squares<T>(pool, batch, opt);
      ADD_FAILURE() << "no exception for " << what;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
    }
  };
  BatchedLsqOptions opt;
  opt.tile = kTile;
  for (ShardPolicy policy :
       {ShardPolicy::round_robin, ShardPolicy::greedy_by_modeled_time}) {
    opt.policy = policy;
    auto batch = make_batch<T>(4, 29);
    batch[1].b.pop_back();  // short right-hand side
    expect_names(batch, opt, "problem 1");

    std::mt19937_64 gen(31);
    auto problem = [&](int m, int c) {
      return BatchProblem<T>::functional(blas::random_matrix<T>(m, c, gen),
                                         blas::random_vector<T>(m, gen));
    };
    std::vector<BatchProblem<T>> bad = {
        problem(16, 8), problem(16, 8),
        problem(16, 6),  // cols not a multiple of the tile
        problem(4, 8)};  // rows < cols
    expect_names(bad, opt, "problem 2");
    bad[2] = problem(16, 8);
    expect_names(bad, opt, "problem 3");
  }
}

// run_batch reports the LOWEST failing item, whatever the timing: on two
// round-robin slots item 2 (shard 0) fails at once while item 1 (shard 1)
// fails late, yet item 1's error must surface at every thread count.
TEST(BatchRunner, RethrowsTheLowestFailingItem) {
  auto pool = DevicePool::homogeneous(device::volta_v100(), 2);
  core::BatchOptions opt;
  const auto shards = core::assign_shards(
      pool, 4, opt, [](const device::DeviceSpec&, int) { return 1.0; });
  ASSERT_EQ(shards, (std::vector<std::vector<int>>{{0, 2}, {1, 3}}));
  for (int threads : {1, 2}) {
    opt.threads = threads;
    std::atomic<int> ran_after_failure{0};
    auto solve = [&](const device::DeviceSpec&, int, int i,
                     util::ThreadPool*) {
      if (i == 2) throw std::runtime_error("item 2");
      if (i == 1) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        throw std::runtime_error("item 1");
      }
      if (i == 3) ++ran_after_failure;  // shard 1 stops at item 1
      return core::ItemCost{};
    };
    util::BatchReport rep;
    try {
      core::run_batch(pool, shards, opt, solve, rep);
      ADD_FAILURE() << "no exception at threads " << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "item 1") << "threads " << threads;
    }
    EXPECT_EQ(ran_after_failure.load(), 0);
  }
}

// The shared LPT assigner sorts by each item's WORST per-slot estimate.
// On this price table slot 0's estimates would order the items 1, 2, 0
// and give shards {0, 1} {2} with loads 6 and 4; the worst-slot key
// orders them 0, 1, 2 and balances both slots at 5.
TEST(ShardAssigner, LptSortsByWorstPerSlotEstimate) {
  const device::DeviceSpec& fast = device::volta_v100();
  const device::DeviceSpec& slow = device::geforce_rtx2080();
  const double on_fast[] = {1, 5, 4};
  const double on_slow[] = {10, 5, 4};
  int calls = 0;
  auto price = [&](const device::DeviceSpec& spec, int i) {
    ++calls;
    return &spec == &fast ? on_fast[i] : on_slow[i];
  };
  core::BatchOptions opt;
  opt.policy = ShardPolicy::greedy_by_modeled_time;

  DevicePool pool;
  pool.slots = {&fast, &slow};
  EXPECT_EQ(core::assign_shards(pool, 3, opt, price),
            (std::vector<std::vector<int>>{{0, 2}, {1}}));
  EXPECT_EQ(calls, 6);  // once per item and distinct spec

  calls = 0;
  core::assign_shards(DevicePool::homogeneous(fast, 3), 3, opt, price);
  EXPECT_EQ(calls, 3);
}

TEST(BatchedLsq, HeterogeneousPoolReportsPerSpecNames) {
  using T = md::dd_real;
  auto batch = make_batch<T>(4, 3);
  DevicePool pool;
  pool.slots = {&device::volta_v100(), &device::pascal_p100()};
  BatchedLsqOptions opt;
  opt.tile = kTile;
  auto res = core::batched_least_squares<T>(pool, batch, opt);
  ASSERT_EQ(res.report.rows.size(), 2u);
  EXPECT_EQ(res.report.rows[0].name, device::volta_v100().name);
  EXPECT_EQ(res.report.rows[1].name, device::pascal_p100().name);
  EXPECT_EQ(res.report.problem_count(), 4);
}

TEST(BatchedLsq, ReportPrintsOneRowPerDevicePlusTotal) {
  using T = md::dd_real;
  auto batch = make_batch<T>(4, 11);
  BatchedLsqOptions opt;
  opt.tile = kTile;
  auto pool = DevicePool::homogeneous(device::volta_v100(), 2);
  auto res = core::batched_least_squares<T>(pool, batch, opt);

  std::FILE* sink = std::tmpfile();
  ASSERT_NE(sink, nullptr);
  res.report.print(sink);
  std::fseek(sink, 0, SEEK_END);
  const long written = std::ftell(sink);
  std::fclose(sink);
  EXPECT_GT(written, 0);
}

TEST(ThreadPool, RunsEverySubmittedJobThenIdles) {
  util::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<int> hits(64, 0);
  for (int i = 0; i < 64; ++i)
    pool.submit([&hits, i] { hits[i] = i + 1; });
  pool.wait();
  for (int i = 0; i < 64; ++i) EXPECT_EQ(hits[i], i + 1);
  // The pool is reusable after draining.
  pool.submit([&hits] { hits[0] = -1; });
  pool.wait();
  EXPECT_EQ(hits[0], -1);
}
