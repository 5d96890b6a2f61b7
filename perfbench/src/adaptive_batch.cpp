// adaptive_batch — a closed loop of batched_least_squares calls with the
// adaptive pipeline and greedy-by-modeled-time sharding on a heterogeneous
// 2-slot pool (V100 + RTX 2080), 2 threads x parallelism 1.  Half of each
// batch is random and well conditioned (accepted at d2), half is
// Hilbert-like (it climbs the ladder), so the batch runner, LPT pricing,
// the ladder's refine/refactor/accept decisions and the condition
// estimator carry the time.  Parallelism 1 keeps the op to two busy
// threads: at parallelism 2 the tile fan-out made these 16-column solves
// slower, and four busy threads on a shared host moved p90 by more than
// its bound from one set of runs to the next.  Every sixth batch is
// double-size, so p90 falls inside that batch's latency band rather than
// on the jitter at the top of the one-size band.
#include <algorithm>
#include <random>

#include "harness.hpp"

namespace perfbench {
namespace {

using namespace mdlsq;

constexpr int NH = 8;
using T = mdreal<NH>;
constexpr int kBatches = 12;  // distinct batches, cycled
constexpr int kWarmBatches = 4;  // batches run by the warm-up
constexpr int kPerBatch = 8;  // problems per one-size batch (half Hilbert-like)
constexpr int kLargeEvery = 6;  // every sixth batch is double-size
constexpr int kCols = 16, kTile = 8;
constexpr int kRowsLo = 24, kRowsHi = 40;
constexpr double kTol = 1e-25;
// The ladder accepts once cond * backward error <= tol, so an accepted
// answer has a backward error (evaluated at d8) within kSlack * tol, and a
// Hilbert-like solve lies within kSlack * tol of its generating solution.
constexpr double kSlack = 1e3;

struct Out {
  int batch = 0;
  std::int64_t op = 0;
  core::BatchedLsqResult<T> r;
};

class AdaptiveBatch final : public Workload {
 public:
  explicit AdaptiveBatch(std::uint64_t seed) {
    std::mt19937_64 gen(seed);
    for (int bi = 0; bi < kBatches; ++bi) {
      std::vector<core::BatchProblem<T>> ps;
      std::vector<blas::Vector<T>> xs;
      const int n = bi % kLargeEvery == kLargeEvery - 1 ? 2 * kPerBatch
                                                        : kPerBatch;
      // Batches of one size hold the same shapes: each kind gets rows
      // evenly spaced over [kRowsLo, kRowsHi], in a seeded order.  The seed
      // picks the values, so an op's latency does not hinge on the seed.
      std::vector<int> rows;
      for (int j = 0; j < n / 2; ++j)
        rows.push_back(kRowsLo + j * (kRowsHi - kRowsLo) / (n / 2 - 1));
      std::vector<int> random_rows = rows, hilbert_rows = rows;
      std::shuffle(random_rows.begin(), random_rows.end(), gen);
      std::shuffle(hilbert_rows.begin(), hilbert_rows.end(), gen);
      for (int k = 0; k < n; ++k) {
        const int m = (k % 2 == 0 ? random_rows : hilbert_rows)[
            static_cast<std::size_t>(k / 2)];
        blas::Matrix<T> a;
        blas::Vector<T> b, x;
        if (k % 2 == 0) {
          a = blas::random_matrix<T>(m, kCols, gen);
          b = blas::random_vector<T>(m, gen);
        } else {
          a = blas::hilbert_like<T>(m, kCols);
          x = blas::random_vector<T>(kCols, gen);
          b = blas::gemv(a, std::span<const T>(x));
        }
        ps.push_back(
            core::BatchProblem<T>::functional(std::move(a), std::move(b)));
        xs.push_back(std::move(x));
      }
      verified_.emplace_back(ps.size());
      batches_.push_back(std::move(ps));
      x_true_.push_back(std::move(xs));
    }
    pool_.slots = {&device::volta_v100(), &device::geforce_rtx2080()};
    opt_.pipeline = core::BatchPipeline::adaptive;
    opt_.policy = core::ShardPolicy::greedy_by_modeled_time;
    opt_.threads = 2;
    opt_.parallelism = 1;
    opt_.tile = kTile;
    opt_.adaptive.tol = kTol;
  }

  // Warm-up: the first kWarmBatches batches, enough that the setup time
  // does not hinge on one seeded batch.
  void setup() override {
    Phase warm;
    for (int bi = 0; bi < kWarmBatches; ++bi) op(bi, -1, warm);
    outs_.clear();
  }

  Phase run(double seconds, int min_ops) override {
    Phase ph;
    const std::int64_t deadline =
        obs::now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    for (std::int64_t i = 0;; ++i) {
      if (i >= min_ops && obs::now_ns() >= deadline) break;
      op(static_cast<int>(i % kBatches), i, ph);
    }
    ph.wall_s = static_cast<double>(ph.win_end_ns.back() -
                                    ph.win_start_ns.front()) / 1e9;
    return ph;
  }

  void check(Phase& ph) override {
    for (Out& o : outs_) {
      const auto& ps = batches_[static_cast<std::size_t>(o.batch)];
      const auto& xs = x_true_[static_cast<std::size_t>(o.batch)];
      Counters& c = ph.c;
      for (std::size_t s = 0; s < o.r.report.rows.size(); ++s)
        c.add_slot_ms(static_cast<int>(s), o.r.report.rows[s].wall_ms);
      for (std::size_t k = 0; k < o.r.problems.size(); ++k) {
        auto& pr = o.r.problems[k];
        if (o.op == corrupt_op_ && k == 0) corrupt(pr.x);
        c.absorb_rungs(pr.rungs);
        c.modeled_ms += pr.wall_ms;
        c.transfer_ms += pr.wall_ms - pr.kernel_ms;
        const core::BatchProblem<T>& p = ps[k];
        const std::string tag = "batch problem " + std::to_string(k);
        bool tallies = pr.measured == pr.analytic;
        for (const auto& rg : pr.rungs)
          tallies = tallies && rg.measured == rg.analytic;
        blas::Vector<T>& verified =
            verified_[static_cast<std::size_t>(o.batch)][k];
        if (!pr.converged) {
          ph.fail(tag + " did not converge");
        } else if (!tallies) {
          ph.fail(tag + " measured != analytic tally");
        } else if (limb_equal<NH>(pr.x, verified)) {
          // Identical to an answer that passed the oracle below: the batch
          // driver is bit-identical from call to call, and the d8 oracle
          // costs about as much as the solve.
        } else if (const double be = lsq_backward_error<NH>(p.a, p.b, pr.x);
                   !(be <= kSlack * kTol)) {
          ph.fail(tag + " backward error " + std::to_string(be));
        } else if (!xs[k].empty() &&
                   !(rel_error<NH>(pr.x, xs[k]) <= kSlack * kTol)) {
          ph.fail(tag + " misses the generating solution");
        } else {
          verified = pr.x;
        }
      }
    }
    outs_.clear();
  }

  double latency_limit_ms() const override { return 150.0; }
  int tile_parallelism() const override { return opt_.parallelism; }

  std::uint64_t input_digest() const override {
    Digest d;
    for (const auto& ps : batches_)
      for (const auto& p : ps) {
        d.add(p.a);
        d.add(p.b);
      }
    return d.h;
  }

 private:
  void op(int bi, std::int64_t i, Phase& ph) {
    ++ph.attempted;
    obs::Span span("bench.op", obs::Cat::service, NH);
    const std::int64_t t0 = obs::now_ns();
    try {
      auto r = core::batched_least_squares(
          pool_, batches_[static_cast<std::size_t>(bi)], opt_);
      const std::int64_t t1 = obs::now_ns();
      ph.add_op(t0, t1, static_cast<double>(t1 - t0) / 1e6);
      outs_.push_back({bi, i, std::move(r)});
    } catch (const std::exception& e) {
      const std::int64_t t1 = obs::now_ns();
      ph.add_op(t0, t1, static_cast<double>(t1 - t0) / 1e6);
      ph.fail(std::string("batched_least_squares threw: ") + e.what());
    }
  }

  std::vector<std::vector<core::BatchProblem<T>>> batches_;
  // Generating solutions of the Hilbert-like problems (empty for random).
  std::vector<std::vector<blas::Vector<T>>> x_true_;
  // Per problem, the last answer that passed the oracle.
  std::vector<std::vector<blas::Vector<T>>> verified_;
  core::DevicePool pool_;
  core::BatchedLsqOptions opt_;
  std::vector<Out> outs_;
};

}  // namespace

std::unique_ptr<Workload> make_adaptive_batch(std::uint64_t seed) {
  return std::make_unique<AdaptiveBatch>(seed);
}

}  // namespace perfbench
