// The solver service (serve/): matrix fingerprinting, the LRU factor
// cache, warm-path limb-identity against the cold pipeline over the
// conformance sweep, admission control, fair-share scheduling, exact
// tally conservation across the daemon, and the release-mode validation
// promotions of this layer (thrown std::invalid_argument — these tests
// run under the default Release build, so they pin NDEBUG survival).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <future>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "blas/generate.hpp"
#include "mdlsq.hpp"
#include "path/batched_tracker.hpp"
#include "support/conformance.hpp"
#include "support/test_support.hpp"

using namespace mdlsq;
using test_support::shape_sweep;

namespace {

template <class T>
bool bitwise_equal(const blas::Vector<T>& a, const blas::Vector<T>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    for (int l = 0; l < blas::scalar_traits<T>::limbs; ++l)
      if (a[i].limb(l) != b[i].limb(l)) return false;
  return true;
}

template <int NH>
serve::Request<NH> lsq_request(blas::Matrix<md::mdreal<NH>> a,
                               blas::Vector<md::mdreal<NH>> b, int tile,
                               std::string tenant = "default") {
  serve::Request<NH> req;
  req.tenant = std::move(tenant);
  req.job = serve::LsqJob<NH>{std::move(a), std::move(b), tile};
  return req;
}

template <int NH>
std::pair<blas::Matrix<md::mdreal<NH>>, blas::Vector<md::mdreal<NH>>>
random_problem(int m, int c, std::uint64_t seed) {
  std::mt19937_64 gen(seed);
  auto a = blas::random_matrix<md::mdreal<NH>>(m, c, gen);
  auto b = blas::random_vector<md::mdreal<NH>>(m, gen);
  return {std::move(a), std::move(b)};
}

// Spin until every queued job has been handed to a worker.  The admission
// and fairness tests submit a long job first and reason about the QUEUE
// behind it; without this barrier a heavily loaded host can delay the
// worker's wakeup past the follow-up submits, and the first job would
// still be counted against the queue limit.
template <int NH>
void wait_until_dispatched(const serve::SolverService<NH>& svc) {
  while (svc.stats().queued > 0) std::this_thread::yield();
}

}  // namespace

// --- fingerprinting ---------------------------------------------------------

TEST(Fingerprint, IdenticalValuesAtDifferentLimbCountsDoNotCollide) {
  // The same double values, held at 2 vs 4 limbs: the limb count is part
  // of the hash, so narrowing or widening a matrix can never alias a
  // cached factor of the wrong rung.
  std::mt19937_64 gen(0x5e41);
  blas::Matrix<md::dd_real> a2(6, 4);
  blas::Matrix<md::qd_real> a4(6, 4);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  for (int i = 0; i < 6; ++i)
    for (int j = 0; j < 4; ++j) {
      const double d = dist(gen);
      a2(i, j) = md::dd_real(d);
      a4(i, j) = md::qd_real(d);
    }
  EXPECT_NE(serve::fingerprint(a2), serve::fingerprint(a4));
}

TEST(Fingerprint, AnySingleLimbPerturbationChangesTheHash) {
  std::mt19937_64 gen(0x5e42);
  auto a = blas::random_matrix<md::qd_real>(5, 3, gen);
  const std::uint64_t fp = serve::fingerprint(a);
  EXPECT_EQ(fp, serve::fingerprint(a)) << "fingerprint must be a pure hash";

  for (int l = 0; l < 4; ++l) {
    auto p = a;
    auto v = p(2, 1);
    v.set_limb(l, v.limb(l) == 0.0 ? 1e-40 : v.limb(l) * (1 + 0x1p-50));
    p(2, 1) = v;
    EXPECT_NE(fp, serve::fingerprint(p)) << "perturbed limb " << l;
  }
}

TEST(Fingerprint, ShapeIsPartOfTheHash) {
  // The same element bits reshaped must not collide (a 4x2 and a 2x4
  // view of one buffer are different operators).
  blas::Matrix<md::dd_real> tall(4, 2);
  blas::Matrix<md::dd_real> wide(2, 4);
  int k = 0;
  for (int i = 0; i < 4; ++i)
    for (int j = 0; j < 2; ++j) tall(i, j) = md::dd_real(++k);
  k = 0;
  for (int i = 0; i < 2; ++i)
    for (int j = 0; j < 4; ++j) wide(i, j) = md::dd_real(++k);
  EXPECT_NE(serve::fingerprint(tall), serve::fingerprint(wide));
}

// --- factor cache -----------------------------------------------------------

namespace {

// A cache entry for operand `a` with empty factors: these tests exercise
// keying, operand verification and the LRU, not the factors.
template <class T>
std::shared_ptr<const serve::CachedFactors<T>> entry_for(
    const blas::Matrix<T>& a) {
  return std::make_shared<const serve::CachedFactors<T>>(
      a, core::ResidentQr<T>{});
}

}  // namespace

TEST(FactorCache, CountsHitsMissesAndPromotesOnUse) {
  using T = md::dd_real;
  std::mt19937_64 gen(0xfc1);
  const auto a1 = blas::random_matrix<T>(4, 2, gen);
  const auto a2 = blas::random_matrix<T>(4, 2, gen);
  const std::int64_t entry_bytes = entry_for(a1)->bytes();
  ASSERT_EQ(entry_bytes, 4 * 2 * 2 * 8);  // A's limbs; no factors

  serve::FactorCache<T> cache(1 << 20);
  EXPECT_EQ(cache.find(0x11, a1), nullptr);
  cache.insert(0x11, entry_for(a1));
  cache.insert(0x22, entry_for(a2));
  auto hit = cache.find(0x11, a1);
  ASSERT_NE(hit, nullptr);
  EXPECT_TRUE(serve::same_bits(hit->a, a1));

  const auto s = cache.stats();
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.verify_failures, 0);
  EXPECT_EQ(s.insertions, 2);
  EXPECT_EQ(s.entries, 2);
  EXPECT_EQ(s.bytes, 2 * entry_bytes);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.5);
}

TEST(FactorCache, ByteBudgetEvictsLeastRecentlyUsed) {
  using T = md::dd_real;
  std::mt19937_64 gen(0xfc2);
  const auto a = blas::random_matrix<T>(4, 2, gen);
  const auto b = blas::random_matrix<T>(4, 2, gen);
  const auto c = blas::random_matrix<T>(4, 2, gen);
  const std::int64_t entry_bytes = entry_for(a)->bytes();
  const std::int64_t budget = 2 * entry_bytes + entry_bytes / 2;
  serve::FactorCache<T> cache(budget);
  cache.insert(1, entry_for(a));
  cache.insert(2, entry_for(b));
  ASSERT_NE(cache.find(1, a), nullptr);  // promote a over b
  cache.insert(3, entry_for(c));         // evicts b

  EXPECT_NE(cache.find(1, a), nullptr);
  EXPECT_EQ(cache.find(2, b), nullptr);
  EXPECT_NE(cache.find(3, c), nullptr);
  const auto s = cache.stats();
  EXPECT_EQ(s.evictions, 1);
  EXPECT_LE(s.bytes, budget);
}

TEST(FactorCache, EntryLargerThanTheBudgetIsNeverRetained) {
  using T = md::dd_real;
  std::mt19937_64 gen(0xfc3);
  const auto a = blas::random_matrix<T>(4, 2, gen);
  serve::FactorCache<T> cache(entry_for(a)->bytes() - 1);
  cache.insert(1, entry_for(a));
  EXPECT_EQ(cache.find(1, a), nullptr);
  EXPECT_EQ(cache.stats().bytes, 0);
}

TEST(FactorCache, HitsVerifyTheOperandBitwise) {
  // Two matrices under one key (a forced fingerprint collision): the
  // lookup with the other matrix must miss and count a verification
  // failure, never hand back the cached matrix's factors.
  using T = md::qd_real;
  std::mt19937_64 gen(0xfc4);
  const auto a1 = blas::random_matrix<T>(5, 3, gen);
  auto a2 = a1;
  {
    auto v = a2(4, 2);
    v.set_limb(3, v.limb(3) == 0.0 ? 1e-70 : v.limb(3) * (1 + 0x1p-50));
    a2(4, 2) = v;
  }
  ASSERT_FALSE(serve::same_bits(a1, a2));

  serve::FactorCache<T> cache(1 << 20);
  const std::uint64_t key = serve::fingerprint(a1);
  cache.insert(key, entry_for(a1));
  EXPECT_EQ(cache.find(key, a2), nullptr)
      << "a colliding key must not return another matrix's factors";
  auto s = cache.stats();
  EXPECT_EQ(s.misses, 1);
  EXPECT_EQ(s.verify_failures, 1);
  EXPECT_EQ(s.hits, 0);
  EXPECT_NE(cache.find(key, a1), nullptr)
      << "the entry stays cached for its own operand";

  // The same limbs in another shape are another operand.
  EXPECT_EQ(cache.find(key, a1.transposed()), nullptr);
  EXPECT_EQ(cache.stats().verify_failures, 2);

  // Bit patterns, not values: a NaN entry matches itself, and -0 is not
  // +0.
  auto nan_a = a1;
  nan_a(0, 0) = T(std::numeric_limits<double>::quiet_NaN());
  cache.insert(7, entry_for(nan_a));
  EXPECT_NE(cache.find(7, blas::Matrix<T>(nan_a)), nullptr);
  auto pz = a1, nz = a1;
  pz(1, 1) = T(0.0);
  nz(1, 1) = T(-0.0);
  cache.insert(8, entry_for(pz));
  EXPECT_EQ(cache.find(8, nz), nullptr);

  s = cache.stats();
  EXPECT_EQ(s.hits, 2);
  EXPECT_EQ(s.verify_failures, 3);
  EXPECT_EQ(s.misses, 3);
}

// --- warm path: limb-identity over the conformance sweep --------------------

template <class T>
void check_warm_equals_cold(const test_support::ShapeCase& c) {
  SCOPED_TRACE("serve " + c.label());
  constexpr int NH = blas::scalar_traits<T>::limbs;
  std::mt19937_64 gen(c.seed);
  auto a = blas::random_matrix<T>(c.rows, c.cols, gen);
  auto b = blas::random_vector<T>(c.rows, gen);

  serve::SolverService<NH> svc(
      core::DevicePool::homogeneous(device::volta_v100(), 1));
  auto cold = svc.submit(lsq_request<NH>(a, b, c.tile)).result.get();
  auto warm = svc.submit(lsq_request<NH>(a, b, c.tile)).result.get();

  EXPECT_FALSE(cold.cache_hit);
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_TRUE(bitwise_equal(cold.x, warm.x))
      << "cache-hit solve must be limb-identical to the cold solve";

  // The cold response agrees bitwise with the one-shot library solve.
  auto dev = test_support::make_dev<T>(device::ExecMode::functional);
  auto one = core::least_squares(dev, a, b, c.tile);
  EXPECT_TRUE(bitwise_equal(cold.x, one.x));

  // measured == analytic on both paths, and the warm schedule (a strict
  // subset of the cold one) is modeled strictly cheaper.
  EXPECT_EQ(cold.analytic, cold.measured);
  EXPECT_EQ(warm.analytic, warm.measured);
  EXPECT_LT(warm.wall_ms, cold.wall_ms);
  EXPECT_LT(warm.kernel_ms, cold.kernel_ms);
  // Admission prices the resident pipeline a cold job runs, so on a
  // one-spec pool a cold job costs exactly its admission price.
  EXPECT_EQ(cold.modeled_cost_ms, cold.wall_ms);

  const auto cs = svc.cache_stats();
  EXPECT_EQ(cs.hits, 1);
  EXPECT_EQ(cs.misses, 1);
}

TEST(ServeWarmPath, SweepDoubleDouble) {
  for (const auto& c : shape_sweep(0x5eb1, 4, 8, 3, 12))
    check_warm_equals_cold<md::dd_real>(c);
}
TEST(ServeWarmPath, SweepQuadDouble) {
  for (const auto& c : shape_sweep(0x5eb2, 3, 8, 2, 8))
    check_warm_equals_cold<md::qd_real>(c);
}
TEST(ServeWarmPath, SweepOctoDouble) {
  for (const auto& c : shape_sweep(0x5eb3, 2, 6, 2, 6))
    check_warm_equals_cold<md::od_real>(c);
}

TEST(ServeWarmPath, CacheDisabledNeverHits) {
  auto [a, b] = random_problem<2>(24, 8, 0xd15a);
  serve::ServiceOptions opt;
  opt.cache_bytes = 0;
  serve::SolverService<2> svc(
      core::DevicePool::homogeneous(device::volta_v100(), 1), opt);
  auto r1 = svc.submit(lsq_request<2>(a, b, 8)).result.get();
  auto r2 = svc.submit(lsq_request<2>(a, b, 8)).result.get();
  EXPECT_FALSE(r1.cache_hit);
  EXPECT_FALSE(r2.cache_hit);
  EXPECT_TRUE(bitwise_equal(r1.x, r2.x));
  EXPECT_EQ(svc.cache_stats().hits + svc.cache_stats().misses, 0);
}

// --- admission control ------------------------------------------------------

TEST(ServeAdmission, QueueDepthLimitRejectsWithReason) {
  // One worker, queue limit 1: J0 dispatches, J1 waits, J2 must bounce.
  // J0/J1 are sized so they are still in flight when J2 arrives.
  auto [a, b] = random_problem<4>(96, 48, 0xadc1);
  serve::ServiceOptions opt;
  opt.queue_limit = 1;
  serve::SolverService<4> svc(
      core::DevicePool::homogeneous(device::volta_v100(), 1), opt);

  auto t0 = svc.submit(lsq_request<4>(a, b, 16));
  wait_until_dispatched(svc);  // J0 runs; the limit now gates the queue
  auto t1 = svc.submit(lsq_request<4>(a, b, 16));
  auto t2 = svc.submit(lsq_request<4>(a, b, 16));

  EXPECT_TRUE(t0.accepted);
  EXPECT_TRUE(t1.accepted);
  ASSERT_FALSE(t2.accepted);
  EXPECT_NE(t2.reject_reason.find("queue depth"), std::string::npos);

  // Ids are stable and monotone across accept AND reject.
  EXPECT_EQ(t1.id, t0.id + 1);
  EXPECT_EQ(t2.id, t1.id + 1);

  // The rejected future is already resolved, with the reason echoed.
  auto r2 = t2.result.get();
  EXPECT_EQ(r2.status, serve::JobStatus::rejected);
  EXPECT_EQ(r2.reject_reason, t2.reject_reason);
  EXPECT_GT(r2.modeled_cost_ms, 0.0);
  EXPECT_EQ(r2.x.size(), 0u);

  EXPECT_EQ(t0.result.get().status, serve::JobStatus::done);
  EXPECT_EQ(t1.result.get().status, serve::JobStatus::done);
  const auto s = svc.stats();
  EXPECT_EQ(s.submitted, 3);
  EXPECT_EQ(s.accepted, 2);
  EXPECT_EQ(s.rejected, 1);
}

TEST(ServeAdmission, ModeledBacklogLimitRejectsWithReason) {
  auto [a, b] = random_problem<4>(96, 48, 0xadc2);
  // Price one job to set a backlog limit that admits exactly one queued
  // job: machine-independent because the limit is modeled time.
  const double one =
      core::adaptive_least_squares_dry<md::qd_real>(device::volta_v100(), 96,
                                                    48, {})
          .wall_ms();
  ASSERT_GT(one, 0.0);

  serve::ServiceOptions opt;
  opt.backlog_limit_ms = 1.5 * one;
  serve::SolverService<4> svc(
      core::DevicePool::homogeneous(device::volta_v100(), 1), opt);

  serve::Request<4> req;
  req.job = serve::AdaptiveLsqJob<4>{a, b, {}};
  auto t0 = svc.submit(req);  // dispatches: backlog drains at dispatch
  wait_until_dispatched(svc);
  auto t1 = svc.submit(req);  // queued: backlog = one
  auto t2 = svc.submit(req);  // one + one > 1.5 * one -> reject
  EXPECT_TRUE(t0.accepted);
  EXPECT_TRUE(t1.accepted);
  ASSERT_FALSE(t2.accepted);
  EXPECT_NE(t2.reject_reason.find("backlog"), std::string::npos);
  svc.drain();
}

// --- drain ------------------------------------------------------------------

// drain() must not return while a row_sink call is still running: the
// sink is part of completing a job, and the caller reads what it wrote.
// The sink sleeps 300 ms and drain() starts 150 ms after submit, long
// after the tiny solve itself finished; the row must still be there.
TEST(ServeDrain, WaitsForTheLastRowSinkCall) {
  auto [a, b] = random_problem<2>(16, 8, 0xd7a1);
  int rows_sunk = 0;  // written on the worker, read after drain()
  serve::ServiceOptions opt;
  opt.row_sink = [&rows_sunk](const util::BatchDeviceRow&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    ++rows_sunk;
  };
  serve::SolverService<2> svc(
      core::DevicePool::homogeneous(device::volta_v100(), 1), opt);
  auto ticket = svc.submit(lsq_request<2>(a, b, 8));
  ASSERT_TRUE(ticket.accepted);
  std::this_thread::sleep_for(std::chrono::milliseconds(150));
  svc.drain();
  EXPECT_EQ(rows_sunk, 1);
}

// Destroying the service with jobs still queued resolves every accepted
// future: the destructor drains the queue before it stops the workers.
// One slot and a sink that holds the first job until every job is
// submitted keep the rest queued; the sink then sleeps per row, so the
// service goes out of scope with jobs still waiting.
TEST(ServeShutdown, DestroyingWithQueuedJobsResolvesEveryFuture) {
  constexpr int kJobs = 6;
  auto [a, b] = random_problem<2>(16, 8, 0xd7a2);
  std::atomic<int> rows_sunk{0};
  std::promise<void> gate;
  std::shared_future<void> open = gate.get_future().share();
  std::vector<std::future<serve::Response<2>>> results;
  {
    serve::ServiceOptions opt;
    opt.row_sink = [&rows_sunk, open](const util::BatchDeviceRow&) {
      open.wait();
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      ++rows_sunk;
    };
    serve::SolverService<2> svc(
        core::DevicePool::homogeneous(device::volta_v100(), 1), opt);
    for (int k = 0; k < kJobs; ++k) {
      auto ticket = svc.submit(lsq_request<2>(a, b, 8));
      EXPECT_TRUE(ticket.accepted);
      results.push_back(std::move(ticket.result));
    }
    EXPECT_GE(svc.stats().queued, kJobs - 1);
    gate.set_value();
  }
  EXPECT_EQ(rows_sunk.load(), kJobs);
  for (auto& f : results) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)), std::future_status::ready);
    EXPECT_EQ(f.get().status, serve::JobStatus::done);
  }
}

// --- fair-share scheduling --------------------------------------------------

TEST(ServeFairShare, CheapTenantIsNotStarvedByAnExpensiveOne) {
  // One worker.  While it chews a warmup job, tenant "heavy" queues two
  // expensive solves and tenant "light" two cheap ones.  Fair share by
  // modeled cost must serve both light jobs before heavy's second: after
  // heavy's first job, heavy's dispatched cost exceeds light's until
  // light has consumed comparably.
  auto [big_a, big_b] = random_problem<4>(96, 48, 0xfa1);
  auto [small_a, small_b] = random_problem<4>(16, 8, 0xfa2);

  std::vector<std::uint64_t> order;
  std::mutex order_mu;
  serve::ServiceOptions opt;
  opt.row_sink = [&](const util::BatchDeviceRow& row) {
    std::lock_guard<std::mutex> lock(order_mu);
    order.push_back(static_cast<std::uint64_t>(row.problems.at(0)));
  };
  serve::SolverService<4> svc(
      core::DevicePool::homogeneous(device::volta_v100(), 1), opt);

  auto warmup = svc.submit(lsq_request<4>(big_a, big_b, 16, "warmup"));
  wait_until_dispatched(svc);  // the tenants now queue behind the warmup
  auto h1 = svc.submit(lsq_request<4>(big_a, big_b, 16, "heavy"));
  auto h2 = svc.submit(lsq_request<4>(big_a, big_b, 16, "heavy"));
  auto l1 = svc.submit(lsq_request<4>(small_a, small_b, 8, "light"));
  auto l2 = svc.submit(lsq_request<4>(small_a, small_b, 8, "light"));
  ASSERT_TRUE(warmup.accepted && h1.accepted && h2.accepted && l1.accepted &&
              l2.accepted);
  svc.drain();

  ASSERT_EQ(order.size(), 5u);
  auto pos = [&](std::uint64_t id) {
    for (std::size_t i = 0; i < order.size(); ++i)
      if (order[i] == id) return i;
    return order.size();
  };
  EXPECT_LT(pos(l1.id), pos(h2.id))
      << "light tenant must be served before heavy's second expensive job";
  EXPECT_LT(pos(l2.id), pos(h2.id));
}

// --- tally conservation across the daemon -----------------------------------

TEST(ServeConservation, MixedWorkloadTalliesAreExactAndConserved) {
  auto [a, b] = random_problem<4>(32, 16, 0xc0a5);
  auto h = path::rational_path_homotopy<md::qd_real>(8, 2.0, 0xc0a6);
  path::TrackOptions topt;
  topt.tile = 4;
  topt.max_steps = 64;

  serve::SolverService<4> svc(
      core::DevicePool::homogeneous(device::volta_v100(), 2));
  std::vector<std::future<serve::Response<4>>> futures;
  for (int rep = 0; rep < 3; ++rep) {
    futures.push_back(
        svc.submit(lsq_request<4>(a, b, 16, "t" + std::to_string(rep)))
            .result);
    serve::Request<4> ar;
    ar.tenant = "adaptive";
    ar.job = serve::AdaptiveLsqJob<4>{a, b, {}};
    futures.push_back(svc.submit(ar).result);
  }
  serve::Request<4> tr;
  tr.tenant = "tracker";
  tr.job = serve::TrackJob<4>{h, topt};
  futures.push_back(svc.submit(tr).result);

  md::OpTally analytic_sum, measured_sum;
  for (auto& f : futures) {
    auto r = f.get();
    ASSERT_EQ(r.status, serve::JobStatus::done);
    EXPECT_EQ(r.analytic, r.measured) << "job " << r.id;
    analytic_sum += r.analytic;
    measured_sum += r.measured;
  }
  svc.drain();

  // Conservation: per-job sums == service stats == aggregate report.
  const auto s = svc.stats();
  EXPECT_EQ(s.completed, static_cast<std::int64_t>(futures.size()));
  EXPECT_EQ(s.analytic, analytic_sum);
  EXPECT_EQ(s.measured, measured_sum);
  EXPECT_EQ(s.analytic, s.measured);

  const auto rep = svc.report();
  EXPECT_EQ(rep.tally, analytic_sum);
  EXPECT_EQ(rep.problem_count(), static_cast<int>(futures.size()));
  EXPECT_FALSE(rep.rungs.empty()) << "adaptive jobs must aggregate rungs";
  EXPECT_EQ(rep.paths.size(), 1u) << "the track job must contribute a path row";
  EXPECT_GT(rep.makespan_ms, 0.0);
}

// --- exec-options satellite: batch-level rungs reach the nested ladders -----

TEST(ExecOptions, BatchLevelRungsConfigureTheAdaptivePipeline) {
  static_assert(std::is_base_of_v<core::ExecOptions, core::AdaptiveOptions>);
  static_assert(std::is_base_of_v<core::ExecOptions, core::BatchedLsqOptions>);
  static_assert(std::is_base_of_v<core::ExecOptions, path::TrackOptions>);
  static_assert(
      std::is_base_of_v<core::ExecOptions, path::BatchedTrackOptions>);

  auto [a, b] = random_problem<4>(24, 8, 0xe0c5);
  std::vector<core::BatchProblem<md::qd_real>> problems;
  problems.push_back(
      core::BatchProblem<md::qd_real>::functional(a, b));
  const auto pool = core::DevicePool::homogeneous(device::volta_v100(), 1);

  core::BatchedLsqOptions nested;
  nested.pipeline = core::BatchPipeline::adaptive;
  nested.adaptive.rungs = {2, 3, 4};
  const auto want = core::batched_least_squares<md::qd_real>(pool, problems,
                                                             nested);

  core::BatchedLsqOptions batch;
  batch.pipeline = core::BatchPipeline::adaptive;
  batch.rungs = {2, 3, 4};  // batch-level override, one assignment
  const auto got = core::batched_least_squares<md::qd_real>(pool, problems,
                                                            batch);
  ASSERT_EQ(want.problems.size(), got.problems.size());
  EXPECT_TRUE(bitwise_equal(want.problems[0].x, got.problems[0].x));
  EXPECT_EQ(want.problems[0].rungs.size(), got.problems[0].rungs.size());
}

// --- release-mode validation promotions -------------------------------------

TEST(ServeValidation, MalformedRequestsThrowFromSubmit) {
  serve::SolverService<2> svc(
      core::DevicePool::homogeneous(device::volta_v100(), 1));
  auto [a, b] = random_problem<2>(16, 8, 0xbad1);

  auto bad_rhs = b;
  bad_rhs = blas::Vector<md::dd_real>(15);
  EXPECT_THROW(svc.submit(lsq_request<2>(a, bad_rhs, 8)),
               std::invalid_argument);
  EXPECT_THROW(svc.submit(lsq_request<2>(a, b, 3)), std::invalid_argument)
      << "tile must divide cols";
  EXPECT_THROW(svc.submit(lsq_request<2>(a, b, 0)), std::invalid_argument);

  // A TrackJob is held to track()'s whole option contract, not just its
  // tile: each of these would otherwise be admitted and fail on a worker.
  const auto track_request = [](void (*edit)(path::TrackOptions&)) {
    path::TrackOptions opt;
    opt.tile = 4;
    edit(opt);
    serve::Request<2> req;
    req.job = serve::TrackJob<2>{
        path::rational_path_homotopy<md::dd_real>(8, 2.0, 0xbad2), opt};
    return req;
  };
  EXPECT_THROW(svc.submit(track_request([](path::TrackOptions& o) {
                 o.order = 0;
               })),
               std::invalid_argument);
  EXPECT_THROW(svc.submit(track_request([](path::TrackOptions& o) {
                 o.t_end = o.t_start;
               })),
               std::invalid_argument);
  EXPECT_THROW(svc.submit(track_request([](path::TrackOptions& o) {
                 o.rungs = {4, 8};
               })),
               std::invalid_argument)
      << "a ladder starting beyond the service's limb count";
  EXPECT_THROW(svc.submit(track_request([](path::TrackOptions& o) {
                 o.rungs = {2, 1};
               })),
               std::invalid_argument)
      << "rung sequence must be strictly increasing";

  EXPECT_EQ(svc.stats().submitted, 0) << "misuse must not consume job ids";
}

TEST(ServeValidation, ServiceAndCacheConstructionValidate) {
  EXPECT_THROW(serve::SolverService<2>(core::DevicePool{}),
               std::invalid_argument);
  serve::ServiceOptions bad;
  bad.queue_limit = 0;
  EXPECT_THROW(
      serve::SolverService<2>(
          core::DevicePool::homogeneous(device::volta_v100(), 1), bad),
      std::invalid_argument);
  EXPECT_THROW(serve::FactorCache<md::dd_real>(-1), std::invalid_argument);
  serve::FactorCache<md::dd_real> cache(100);
  EXPECT_THROW(cache.insert(0, nullptr), std::invalid_argument);
}

TEST(ServeValidation, BatchReportAbsorbValidatesInRelease) {
  util::BatchReport rep;
  util::BatchDeviceRow row;
  row.device = -1;
  EXPECT_THROW(rep.absorb(row), std::invalid_argument);
  row.device = 0;
  row.kernel_ms = -1.0;
  EXPECT_THROW(rep.absorb(row), std::invalid_argument);
  row.kernel_ms = 1.0;
  row.wall_ms = 2.0;
  row.problems = {0};
  rep.absorb(row);
  rep.absorb(row);
  EXPECT_EQ(rep.problem_count(), 2);
  EXPECT_DOUBLE_EQ(rep.kernel_ms, 2.0);
  EXPECT_DOUBLE_EQ(rep.makespan_ms, 4.0);
}

// The service report must not depend on job completion order: device
// rows keep their problem ids ascending, path rows stay ordered by id and
// rung rows by precision (the ms values are exactly representable, so
// their sums are exact in any order).
TEST(ServeReport, AbsorbOrderDoesNotChangeTheJson) {
  const auto device_row = [](int slot, int id) {
    util::BatchDeviceRow r;
    r.device = slot;
    r.name = "V100";
    r.problems = {id};
    r.kernel_ms = 0.25 * (id + 1);
    r.wall_ms = 0.5 * (id + 1);
    return r;
  };
  const auto path_row = [](int id) {
    util::BatchPathRow r;
    r.path = id;
    r.device = id % 2;
    r.steps = id + 3;
    r.kernel_ms = 0.125 * (id + 1);
    return r;
  };
  // Adaptive jobs on different rung sequences ({2,3} and {2,4}) reach
  // different precisions; the rung rows must come out in ladder order.
  const auto rung_row = [](int id) {
    util::RungStats r;
    r.precision = md::Precision(2 + id % 3);
    r.device_precision = md::Precision(2);
    r.refactorized = id % 2 == 0;
    r.accepted = id % 3 == 2;
    r.refine_iterations = id;
    r.kernel_ms = 0.0625 * (id + 1);
    return r;
  };
  const auto json_of = [&](const std::vector<int>& order) {
    util::BatchReport rep;
    for (const int id : order) {
      rep.absorb(device_row(id % 2, id));
      rep.absorb_path(path_row(id));
      rep.absorb_rung(rung_row(id));
    }
    std::FILE* f = std::tmpfile();
    EXPECT_NE(f, nullptr);
    if (f == nullptr) return std::string();
    rep.write_json(f);
    std::rewind(f);
    std::string out;
    for (int c = std::fgetc(f); c != EOF; c = std::fgetc(f))
      out.push_back(static_cast<char>(c));
    std::fclose(f);
    return out;
  };
  const std::string in_order = json_of({0, 1, 2, 3, 4, 5});
  EXPECT_EQ(json_of({5, 2, 0, 3, 1, 4}), in_order);
  EXPECT_EQ(json_of({4, 5, 3, 1, 2, 0}), in_order);
  EXPECT_NE(in_order.find("\"problems\": [0, 2, 4]"), std::string::npos)
      << in_order;
  const auto rung_at = [&](const char* name) {
    return in_order.find(std::string("\"precision\": \"") + name +
                         "\", \"problems\"");
  };
  ASSERT_NE(rung_at("4d"), std::string::npos) << in_order;
  EXPECT_LT(rung_at("2d"), rung_at("3d")) << in_order;
  EXPECT_LT(rung_at("3d"), rung_at("4d")) << in_order;
}

// --- non-finite input --------------------------------------------------------

// An adaptive job on a NaN right-hand side resolves (no exception, no
// hang) and reports an unconverged answer.
TEST(ServeNonFinite, AdaptiveJobWithNanResolvesUnconverged) {
  auto [a, b] = random_problem<4>(32, 16, 0x9a9);
  b[3] = md::qd_real(std::numeric_limits<double>::quiet_NaN());
  serve::SolverService<4> svc(
      core::DevicePool::homogeneous(device::volta_v100(), 1));
  serve::Request<4> req;
  req.job = serve::AdaptiveLsqJob<4>{a, b, {}};
  auto ticket = svc.submit(req);
  ASSERT_TRUE(ticket.accepted);
  const auto resp = ticket.result.get();
  svc.drain();
  EXPECT_EQ(resp.status, serve::JobStatus::done);
  EXPECT_FALSE(resp.converged);
  ASSERT_EQ(resp.rungs.size(), 1u);
  EXPECT_FALSE(std::isfinite(resp.rungs[0].backward_error));
}

TEST(ServeValidation, BatchedTrackValidatesBatchKnobsInRelease) {
  const auto pool = core::DevicePool::homogeneous(device::volta_v100(), 1);
  path::BatchedTrackOptions opt;
  std::vector<path::TrackProblem<2>> good;
  good.push_back(path::TrackProblem<2>::functional(
      path::rational_path_homotopy<md::dd_real>(4, 2.0, 0xbad3)));
  path::BatchedTrackOptions bad_threads = opt;
  bad_threads.threads = -1;
  EXPECT_THROW(path::batched_track<2>(pool, good, bad_threads),
               std::invalid_argument);
  path::BatchedTrackOptions bad_rungs = opt;
  bad_rungs.rungs = {2, 7};
  EXPECT_THROW(path::batched_track<2>(pool, good, bad_rungs),
               std::invalid_argument);
  EXPECT_NO_THROW(path::batched_track<2>(pool, good, opt));
}

// --- stats satellite: rejects by reason, cache counters, metrics mirror -----

TEST(ServeStats, MixedWorkloadCountersAreConsistent) {
  auto [a, b] = random_problem<4>(32, 16, 0x57a1);
  auto [a2, b2] = random_problem<4>(32, 16, 0x57a2);
  auto [big_a, big_b] = random_problem<4>(160, 80, 0x57a3);

  // Size the cache to hold exactly ONE 32x16 entry — A next to its thin
  // factors — so the second cold matrix must evict the first.
  std::int64_t entry_bytes = 0;
  {
    using T = md::qd_real;
    auto dev = test_support::make_dev<T>(device::ExecMode::functional);
    auto sol = core::least_squares_resident_run<T>(dev, &a, &b, 32, 16, 16);
    entry_bytes = serve::CachedFactors<T>{
        a, core::ResidentQr<T>::from_staged(std::move(sol.factors), 16)}
                      .bytes();
  }
  ASSERT_EQ(entry_bytes, (32 * 16 + 32 * 16 + 16 * 16) * 4 * 8);

  // Price the jobs exactly the way the service's admission does (an
  // LsqJob by the resident pipeline's dry walk, an adaptive job by its dry
  // ladder, both against the pool's first slot), then place the backlog
  // limit BETWEEN the adaptive warmup's price (must be admitted on an
  // empty queue) and the fixed-d4 big solve's (must be rejected on one):
  // the adaptive ladder prices its big solve at the cheap d2 starting
  // rung, so it undercuts the same shape solved entirely at d4.
  device::Device pricer(device::volta_v100(), md::Precision::d4,
                        device::ExecMode::dry_run);
  core::least_squares_resident_run<md::qd_real>(pricer, nullptr, nullptr, 32,
                                                16, 16);
  const double one = pricer.wall_ms();
  device::Device big_pricer(device::volta_v100(), md::Precision::d4,
                            device::ExecMode::dry_run);
  core::least_squares_resident_run<md::qd_real>(big_pricer, nullptr, nullptr,
                                                160, 80, 16);
  const double big_fixed = big_pricer.wall_ms();
  const double warm_adaptive = core::adaptive_least_squares_dry<md::qd_real>(
                                   device::volta_v100(), 160, 80, {})
                                   .wall_ms();
  ASSERT_GT(one, 0.0);
  ASSERT_LT(warm_adaptive, big_fixed);
  const double limit = 0.5 * (warm_adaptive + big_fixed);
  ASSERT_GT(limit, 2 * one) << "two small jobs must fit under the limit";

  obs::MetricsRegistry metrics;
  serve::ServiceOptions opt;
  opt.queue_limit = 2;
  opt.backlog_limit_ms = limit;
  opt.cache_bytes = entry_bytes + entry_bytes / 2;
  opt.metrics = &metrics;
  serve::SolverService<4> svc(
      core::DevicePool::homogeneous(device::volta_v100(), 1), opt);

  // A long adaptive warmup occupies the single worker (and never touches
  // the factor cache), so the small jobs pile up behind it.
  serve::Request<4> warm;
  warm.job = serve::AdaptiveLsqJob<4>{big_a, big_b, {}};
  auto w = svc.submit(warm);
  wait_until_dispatched(svc);

  auto j1 = svc.submit(lsq_request<4>(a, b, 16));   // queued; cold miss
  auto j2 = svc.submit(lsq_request<4>(a, b, 16));   // queued; warm hit
  auto j3 = svc.submit(lsq_request<4>(a, b, 16));   // queue depth reject
  ASSERT_TRUE(w.accepted && j1.accepted && j2.accepted);
  ASSERT_FALSE(j3.accepted);
  EXPECT_NE(j3.reject_reason.find("queue depth"), std::string::npos);
  svc.drain();

  auto j4 = svc.submit(lsq_request<4>(big_a, big_b, 16));  // backlog reject
  ASSERT_FALSE(j4.accepted);
  EXPECT_NE(j4.reject_reason.find("backlog"), std::string::npos);

  auto j5 = svc.submit(lsq_request<4>(a2, b2, 16));  // cold miss + eviction
  svc.drain();

  EXPECT_FALSE(j1.result.get().cache_hit);
  EXPECT_TRUE(j2.result.get().cache_hit);
  EXPECT_FALSE(j5.result.get().cache_hit);

  const auto s = svc.stats();
  EXPECT_EQ(s.submitted, 6);
  EXPECT_EQ(s.accepted, 4);
  EXPECT_EQ(s.rejected, 2);
  EXPECT_EQ(s.rejected_queue_depth, 1);
  EXPECT_EQ(s.rejected_backlog, 1);
  EXPECT_EQ(s.rejected, s.rejected_queue_depth + s.rejected_backlog);
  EXPECT_EQ(s.submitted, s.accepted + s.rejected);
  EXPECT_EQ(s.completed, 4);
  EXPECT_EQ(s.failed, 0);
  EXPECT_EQ(s.queued, 0);
  EXPECT_EQ(s.running, 0);

  // The cache counters mirrored into ServiceStats match the cache itself.
  const auto cs = svc.cache_stats();
  EXPECT_EQ(s.cache_hits, cs.hits);
  EXPECT_EQ(s.cache_misses, cs.misses);
  EXPECT_EQ(s.cache_evictions, cs.evictions);
  EXPECT_EQ(s.cache_verify_failures, cs.verify_failures);
  EXPECT_EQ(s.cache_hits, 1);
  EXPECT_EQ(s.cache_misses, 2);
  EXPECT_EQ(s.cache_evictions, 1) << "the second factor must evict the first";
  EXPECT_EQ(s.cache_verify_failures, 0);
  EXPECT_EQ(cs.entries, 1);

  // The metrics registry tells the same story as ServiceStats.
  EXPECT_EQ(metrics.counter("serve.submitted"), s.submitted);
  EXPECT_EQ(metrics.counter("serve.accepted"), s.accepted);
  EXPECT_EQ(metrics.counter("serve.rejected.queue_depth"),
            s.rejected_queue_depth);
  EXPECT_EQ(metrics.counter("serve.rejected.backlog"), s.rejected_backlog);
  EXPECT_EQ(metrics.counter("serve.cache.hits"), s.cache_hits);
  EXPECT_EQ(metrics.counter("serve.cache.misses"), s.cache_misses);
  EXPECT_DOUBLE_EQ(metrics.gauge("serve.cache.evictions"),
                   static_cast<double>(s.cache_evictions));
  EXPECT_DOUBLE_EQ(metrics.gauge("serve.cache.verify_failures"),
                   static_cast<double>(s.cache_verify_failures));
  EXPECT_EQ(metrics.histogram("serve.queue_wait_ms").count, s.completed)
      << "every dispatched job observes its queue wait exactly once";
  EXPECT_GT(metrics.gauge("serve.tenant.default.dispatched_ms"), 0.0);
  EXPECT_DOUBLE_EQ(metrics.gauge("serve.queue_depth"), 0.0);
}
