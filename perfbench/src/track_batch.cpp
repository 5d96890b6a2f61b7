// track_batch — a closed loop of path::batched_track calls on the
// heterogeneous 2-slot pool (V100 + RTX 2080), 2 threads, parallelism 1,
// greedy-by-modeled-time sharding.  The mdreal<4> homotopies alternate a
// rational path (rho = 2, stays at d2) and a graded stiff path (14
// decades, escalates to d4).  Every path issues hundreds of tiny launches,
// so launch bookkeeping, tallies, staging and the per-step ladder dominate
// while arithmetic per launch is small.
#include <random>

#include "harness.hpp"

namespace perfbench {
namespace {

using namespace mdlsq;

constexpr int NH = 4;
using T = mdreal<NH>;
constexpr int kBatches = 12;  // distinct batches, cycled
constexpr int kWarmBatches = 4;  // batches run by the warm-up
constexpr int kPaths = 4;     // paths per batch, alternating families
constexpr int kDim = 12, kTile = 4;
constexpr double kTol = 1e-20;
constexpr double kRho = 2.0, kDecades = 14.0;
// A tracked endpoint within kEndpointSlack * tol (relative) of the
// analytic x*(1) is correct.
constexpr double kEndpointSlack = 1e3;

struct Out {
  int batch = 0;
  std::int64_t op = 0;
  path::BatchedTrackResult<NH> r;
};

class TrackBatch final : public Workload {
 public:
  explicit TrackBatch(std::uint64_t seed) {
    std::mt19937_64 gen(seed);
    for (int bi = 0; bi < kBatches; ++bi) {
      std::vector<path::TrackProblem<NH>> ps;
      std::vector<blas::Vector<T>> ends;
      for (int k = 0; k < kPaths; ++k) {
        const std::uint64_t s = gen();
        blas::Vector<T> end;
        if (k % 2 == 0) {
          blas::Vector<T> v;
          auto h = path::rational_path_homotopy<T>(kDim, kRho, s, &v);
          // x*(1) = v rho / (rho - 1)
          for (auto& e : v) e = e * T(kRho / (kRho - 1.0));
          end = std::move(v);
          ps.push_back(path::TrackProblem<NH>::functional(std::move(h)));
        } else {
          auto h = path::graded_stiff_homotopy<T>(kDim, kDecades, s, &end);
          ps.push_back(path::TrackProblem<NH>::functional(std::move(h)));
        }
        ends.push_back(std::move(end));
      }
      batches_.push_back(std::move(ps));
      ends_.push_back(std::move(ends));
    }
    pool_.slots = {&device::volta_v100(), &device::geforce_rtx2080()};
    opt_.policy = core::ShardPolicy::greedy_by_modeled_time;
    opt_.threads = 2;
    opt_.parallelism = 1;
    opt_.track.tile = kTile;
    opt_.track.tol = kTol;
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
      const auto& ends = ends_[static_cast<std::size_t>(o.batch)];
      Counters& c = ph.c;
      for (std::size_t s = 0; s < o.r.report.rows.size(); ++s)
        c.add_slot_ms(static_cast<int>(s), o.r.report.rows[s].wall_ms);
      for (std::size_t k = 0; k < o.r.paths.size(); ++k) {
        auto& res = o.r.paths[k].result;
        if (o.op == corrupt_op_ && k == 0) corrupt(res.x);
        c.absorb_track(res);
        const std::string tag = "path " + std::to_string(k);
        bool tallies = true;
        for (const auto& s : res.steps)
          for (const auto& rg : s.rungs)
            tallies = tallies && rg.measured == rg.analytic;
        if (!res.converged)
          ph.fail(tag + " did not reach t = 1");
        else if (!tallies)
          ph.fail(tag + " measured != analytic tally");
        else if (!(rel_error<NH>(res.x, ends[k]) <= kEndpointSlack * kTol))
          ph.fail(tag + " endpoint misses the analytic x*(1)");
      }
    }
    outs_.clear();
  }

  double latency_limit_ms() const override { return 300.0; }

  std::uint64_t input_digest() const override {
    Digest d;
    for (const auto& ends : ends_)
      for (const auto& e : ends) d.add(e);
    return d.h;
  }

 private:
  void op(int bi, std::int64_t i, Phase& ph) {
    ++ph.attempted;
    obs::Span span("bench.op", obs::Cat::service, NH);
    const std::int64_t t0 = obs::now_ns();
    try {
      auto r = path::batched_track<NH>(
          pool_, batches_[static_cast<std::size_t>(bi)], opt_);
      const std::int64_t t1 = obs::now_ns();
      ph.add_op(t0, t1, static_cast<double>(t1 - t0) / 1e6);
      outs_.push_back({bi, i, std::move(r)});
    } catch (const std::exception& e) {
      const std::int64_t t1 = obs::now_ns();
      ph.add_op(t0, t1, static_cast<double>(t1 - t0) / 1e6);
      ph.fail(std::string("batched_track threw: ") + e.what());
    }
  }

  std::vector<std::vector<path::TrackProblem<NH>>> batches_;
  std::vector<std::vector<blas::Vector<T>>> ends_;  // analytic x*(1)
  core::DevicePool pool_;
  path::BatchedTrackOptions opt_;
  std::vector<Out> outs_;
};

}  // namespace

std::unique_ptr<Workload> make_track_batch(std::uint64_t seed) {
  return std::make_unique<TrackBatch>(seed);
}

}  // namespace perfbench
