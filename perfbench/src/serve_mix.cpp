// serve_mix — an open loop: one submitter thread sends seeded Poisson
// arrivals at a fixed rate to SolverService<4> over a 2-slot V100 pool (2
// workers, parallelism 1, three tenants).  About 60% of requests are
// LsqJobs drawn Zipf-skewed from distinct matrices whose factors exceed
// the cache budget, so hits, misses-with-insert and evictions all occur;
// about 25% are AdaptiveLsqJobs and 15% TrackJobs.  The job sizes are
// chosen so that cache misses and tracks form one latency band (4-8 ms on
// a 4-core x86 host) and p90 falls inside it rather than between bands;
// at 250 requests/s the workers are about 15% busy there (a busier
// setting let queueing bursts move p90 by more than its bound from seed
// to seed).  The queue limit is high enough that nothing is rejected.
// Latency runs from a request's due time to its response.
#include <algorithm>
#include <cmath>
#include <future>
#include <mutex>
#include <random>
#include <unordered_map>

#include "harness.hpp"

namespace perfbench {
namespace {

using namespace mdlsq;

constexpr int NH = 4;
using T = mdreal<NH>;

constexpr int kLsqMatrices = 16, kLsqRows = 24, kLsqCols = 8, kLsqTile = 8;
constexpr double kZipfS = 1.3;
// Factors of one LsqJob (Q: rows x rows, R: rows x cols, 4 limbs each);
// the budget holds fourteen of the sixteen.
constexpr std::int64_t kFactorBytes =
    std::int64_t(kLsqRows) * (kLsqRows + kLsqCols) * NH * 8;
constexpr std::int64_t kCacheBytes = 14 * kFactorBytes;
constexpr int kAdaptive = 12, kAdaRows = 24, kAdaCols = 8, kAdaTile = 8;
constexpr double kAdaTol = 1e-25;
constexpr int kTracks = 12, kTrackDim = 8, kTrackTile = 4;
constexpr double kTrackTol = 1e-20;
constexpr double kRatePerS = 250.0;
constexpr int kSample = 8;  // responses re-solved by a direct call of the same entry point
constexpr double kBackwardUlps = 1e4, kSlack = 1e3;
const char* const kTenants[3] = {"alice", "bob", "carol"};

enum class Kind { lsq, adaptive, track };

struct Planned {
  Kind kind;
  int idx;
  int tenant;
};

class ServeMix final : public Workload {
 public:
  explicit ServeMix(std::uint64_t seed) : seed_(seed) {
    std::mt19937_64 gen(seed);
    for (int k = 0; k < kLsqMatrices; ++k)
      lsq_.push_back({blas::random_matrix<T>(kLsqRows, kLsqCols, gen),
                      blas::random_vector<T>(kLsqRows, gen), kLsqTile});
    for (int k = 0; k < kAdaptive; ++k) {
      serve::AdaptiveLsqJob<NH> j;
      j.opt.tol = kAdaTol;
      j.opt.tile = kAdaTile;
      blas::Vector<T> x;
      if (k % 2 == 0) {
        j.a = blas::random_matrix<T>(kAdaRows, kAdaCols, gen);
        j.b = blas::random_vector<T>(kAdaRows, gen);
      } else {
        j.a = blas::hilbert_like<T>(kAdaRows, kAdaCols);
        x = blas::random_vector<T>(kAdaCols, gen);
        j.b = blas::gemv(j.a, std::span<const T>(x));
      }
      ada_.push_back(std::move(j));
      ada_x_.push_back(std::move(x));
    }
    path::TrackOptions topt;
    topt.tile = kTrackTile;
    topt.tol = kTrackTol;
    // One family only: rational paths (rho = 2) take nearly the same steps
    // whatever the seed, so the TrackJobs form one narrow latency band and
    // p90 does not move with which paths a seed drew.
    for (int k = 0; k < kTracks; ++k) {
      blas::Vector<T> v;
      auto h = path::rational_path_homotopy<T>(kTrackDim, 2.0, gen(), &v);
      for (auto& e : v) e = e * T(2.0);  // x*(1) = v rho / (rho - 1)
      track_.push_back({std::move(h), topt});
      track_end_.push_back(std::move(v));
    }
    for (int k = 0; k < kLsqMatrices; ++k)
      zipf_.push_back(1.0 / std::pow(k + 1.0, kZipfS));
  }

  void setup() override {
    svc_.reset();
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ns_.clear();
    }
    serve::ServiceOptions o;
    o.queue_limit = 1 << 20;
    o.cache_bytes = kCacheBytes;
    o.parallelism = 1;
    o.row_sink = [this](const util::BatchDeviceRow& row) {
      const std::int64_t now = obs::now_ns();
      std::lock_guard<std::mutex> lock(mu_);
      done_ns_[static_cast<std::uint64_t>(row.problems.at(0))] = now;
    };
    svc_ = std::make_unique<serve::SolverService<NH>>(
        core::DevicePool::homogeneous(device::volta_v100(), 2), std::move(o));
    // Warm-up: every distinct matrix once (fills and evicts the cache),
    // plus one ladder and one track.
    std::vector<std::future<serve::Response<NH>>> fs;
    for (int k = 0; k < kLsqMatrices; ++k)
      fs.push_back(svc_->submit(request({Kind::lsq, k, 0})).result);
    fs.push_back(svc_->submit(request({Kind::adaptive, 1, 1})).result);
    fs.push_back(svc_->submit(request({Kind::track, 1, 2})).result);
    for (auto& f : fs) f.get();
    svc_->drain();
  }

  Phase run(double seconds, int min_ops) override {
    Phase ph;
    const std::uint64_t phase_seed = seed_ * 1000003ULL + phases_++;
    const std::vector<double> due =
        poisson_schedule(phase_seed, kRatePerS, seconds, min_ops);
    plan_ = make_plan(phase_seed, due.size());
    std::vector<serve::Request<NH>> reqs;
    for (const Planned& p : plan_) reqs.push_back(request(p));

    std::vector<serve::SubmitTicket<NH>> tickets(reqs.size());
    const serve::ServiceStats before = svc_->stats();
    const OpenLoopLog log = run_open_loop(due, [&](std::size_t i) {
      obs::Span span("bench.submit", obs::Cat::service, NH);
      tickets[i] = svc_->submit(std::move(reqs[i]));
    });
    responses_.assign(tickets.size(), {});
    ok_.assign(tickets.size(), false);
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      ++ph.attempted;
      try {
        responses_[i] = tickets[i].result.get();
        ok_[i] = true;
      } catch (const std::exception& e) {
        ph.fail(std::string("request threw: ") + e.what());
      }
    }
    svc_->drain();
    const serve::ServiceStats after = svc_->stats();

    std::int64_t first = log.due_ns.front(), last = first;
    for (std::size_t i = 0; i < tickets.size(); ++i) {
      std::int64_t done = obs::now_ns();
      {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = done_ns_.find(tickets[i].id);
        if (it != done_ns_.end()) done = it->second;
      }
      if (!tickets[i].accepted) done = log.sent_ns[i];
      last = std::max(last, done);
      ph.add_op(log.due_ns[i], done,
                static_cast<double>(done - log.due_ns[i]) / 1e6);
      ph.gen_lag_ms.push_back(
          static_cast<double>(log.sent_ns[i] - log.due_ns[i]) / 1e6);
    }
    ph.wall_s = static_cast<double>(last - first) / 1e9;
    {  // latency by job kind, on stderr, for reading a run
      std::vector<double> by[4];
      for (std::size_t i = 0; i < plan_.size(); ++i) {
        const int k = plan_[i].kind == Kind::lsq
                          ? (responses_[i].cache_hit ? 0 : 1)
                          : plan_[i].kind == Kind::adaptive ? 2 : 3;
        by[k].push_back(ph.op_ms[i]);
      }
      const char* names[4] = {"lsq hit", "lsq miss", "adaptive", "track"};
      for (int k = 0; k < 4; ++k)
        std::fprintf(stderr, "  %-9s n=%5zu p50 %8.3f p90 %8.3f ms\n",
                     names[k], by[k].size(), percentile(by[k], 0.5),
                     percentile(by[k], 0.9));
    }
    ph.c.cache_hits = after.cache_hits - before.cache_hits;
    ph.c.cache_misses = after.cache_misses - before.cache_misses;
    ph.c.evictions = after.cache_evictions - before.cache_evictions;
    ph.c.rejected = after.rejected - before.rejected;
    return ph;
  }

  void check(Phase& ph) override {
    Counters& c = ph.c;
    for (std::size_t i = 0; i < responses_.size(); ++i) {
      if (!ok_[i]) continue;
      serve::Response<NH>& r = responses_[i];
      const Planned& p = plan_[i];
      const std::string tag = "request " + std::to_string(i);
      if (r.status != serve::JobStatus::done) {
        ok_[i] = false;
        ph.fail(tag + " rejected: " + r.reject_reason);
        continue;
      }
      if (static_cast<std::int64_t>(i) == corrupt_op_) corrupt(r.x);
      c.modeled_ms += r.wall_ms;
      c.transfer_ms += r.wall_ms - r.kernel_ms;
      c.add_slot_ms(r.row.device, r.wall_ms);
      bool correct = r.analytic == r.measured;
      if (p.kind == Kind::lsq) {
        c.device_dp_flops += r.analytic.dp_flops(md::Precision(NH));
        c.device_md_ops += r.analytic.md_ops();
        c.ops_by_limbs[NH] += r.analytic;
        const auto& j = lsq_[static_cast<std::size_t>(p.idx)];
        correct = correct && lsq_backward_error<NH>(j.a, j.b, r.x) <=
                                 kBackwardUlps * eps_of(NH);
      } else if (p.kind == Kind::adaptive) {
        c.absorb_rungs(r.rungs);
        for (const auto& rg : r.rungs)
          correct = correct && rg.measured == rg.analytic;
        const auto& j = ada_[static_cast<std::size_t>(p.idx)];
        const auto& x = ada_x_[static_cast<std::size_t>(p.idx)];
        // Accepted once cond * backward error <= tol (see adaptive_batch).
        correct = correct && r.converged &&
                  lsq_backward_error<NH>(j.a, j.b, r.x) <= kSlack * kAdaTol;
        if (!x.empty())
          correct = correct && rel_error<NH>(r.x, x) <= kSlack * kAdaTol;
      } else {
        // The Response carries no per-step stats: the path's device work
        // is attributed to the precision it ended at.
        c.device_dp_flops += r.row.dp_gflop * 1e9;
        c.device_md_ops += r.analytic.md_ops();
        c.ops_by_limbs[md::limbs_of(r.final_precision)] += r.analytic;
        ++c.paths;
        c.steps += r.steps;
        c.corrections += r.correction_solves;
        c.converged_paths += r.converged ? 1 : 0;
        correct = correct && r.converged &&
                  rel_error<NH>(r.x, track_end_[static_cast<std::size_t>(
                                         p.idx)]) <= kSlack * kTrackTol;
      }
      if (!correct) {
        ok_[i] = false;
        ph.fail(tag + (p.kind == Kind::lsq        ? " (lsq)"
                       : p.kind == Kind::adaptive ? " (adaptive)"
                                                  : " (track)") +
                " wrong answer");
      }
    }
    // A seeded sample of the correct responses must be limb-identical to
    // a direct call of the same entry point.
    std::vector<std::size_t> order(responses_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::shuffle(order.begin(), order.end(),
                 std::mt19937_64(seed_ ^ 0x5a5a5a5aULL));
    int sampled = 0;
    for (std::size_t i : order) {
      if (sampled == kSample) break;
      if (!ok_[i] || responses_[i].status != serve::JobStatus::done) continue;
      ++sampled;
      if (!limb_equal<NH>(responses_[i].x, direct(plan_[i])))
        ph.fail("request " + std::to_string(i) +
                " differs from the direct call of the same entry point");
    }
    responses_.clear();
  }

  double latency_limit_ms() const override { return 50.0; }

  std::uint64_t input_digest() const override {
    Digest d;
    for (const auto& j : lsq_) {
      d.add(j.a);
      d.add(j.b);
    }
    for (const auto& j : ada_) d.add(j.b);
    for (const auto& e : track_end_) d.add(e);
    for (const Planned& p : make_plan(seed_ * 1000003ULL, 64)) {
      d.add(static_cast<double>(p.kind));
      d.add(p.idx);
      d.add(p.tenant);
    }
    return d.h;
  }

 private:
  // The mix is stratified: every block of 20 requests holds exactly 12
  // LsqJobs, 5 AdaptiveLsqJobs and 3 TrackJobs in seeded order, and the
  // ladder and track problems are taken in turn, so the share of each job
  // kind does not vary from seed to seed; the LsqJob matrices and tenants
  // are seeded draws.
  std::vector<Planned> make_plan(std::uint64_t seed, std::size_t n) const {
    std::mt19937_64 gen(seed ^ 0x9e3779b97f4a7c15ULL);
    std::discrete_distribution<int> zipf(zipf_.begin(), zipf_.end());
    std::vector<Kind> block;
    block.insert(block.end(), 12, Kind::lsq);
    block.insert(block.end(), 5, Kind::adaptive);
    block.insert(block.end(), 3, Kind::track);
    std::vector<Planned> plan;
    int next_ada = 0, next_track = 0;
    while (plan.size() < n) {
      std::shuffle(block.begin(), block.end(), gen);
      for (Kind k : block) {
        const int tenant = static_cast<int>(gen() % 3);
        if (k == Kind::lsq)
          plan.push_back({k, zipf(gen), tenant});
        else if (k == Kind::adaptive)
          plan.push_back({k, next_ada++ % kAdaptive, tenant});
        else
          plan.push_back({k, next_track++ % kTracks, tenant});
      }
    }
    plan.resize(n);
    return plan;
  }

  serve::Request<NH> request(const Planned& p) const {
    serve::Request<NH> req;
    req.tenant = kTenants[p.tenant];
    const auto k = static_cast<std::size_t>(p.idx);
    if (p.kind == Kind::lsq)
      req.job = lsq_[k];
    else if (p.kind == Kind::adaptive)
      req.job = ada_[k];
    else
      req.job = track_[k];
    return req;
  }

  blas::Vector<T> direct(const Planned& p) const {
    const auto k = static_cast<std::size_t>(p.idx);
    const device::DeviceSpec& spec = device::volta_v100();
    if (p.kind == Kind::lsq) {
      device::Device dev(spec, md::Precision(NH), device::ExecMode::functional);
      return core::least_squares<T>(dev, lsq_[k].a, lsq_[k].b, lsq_[k].tile).x;
    }
    if (p.kind == Kind::adaptive)
      return core::adaptive_least_squares<NH>(spec, ada_[k].a, ada_[k].b,
                                              ada_[k].opt)
          .x;
    return path::track<NH>(spec, track_[k].h, track_[k].opt).x;
  }

  std::uint64_t seed_;
  std::uint64_t phases_ = 0;
  std::vector<serve::LsqJob<NH>> lsq_;
  std::vector<double> zipf_;
  std::vector<serve::AdaptiveLsqJob<NH>> ada_;
  std::vector<blas::Vector<T>> ada_x_;  // Hilbert-like generating solutions
  std::vector<serve::TrackJob<NH>> track_;
  std::vector<blas::Vector<T>> track_end_;  // analytic x*(1)

  std::mutex mu_;
  std::unordered_map<std::uint64_t, std::int64_t> done_ns_;  // id -> done
  std::unique_ptr<serve::SolverService<NH>> svc_;
  std::vector<Planned> plan_;
  std::vector<serve::Response<NH>> responses_;
  std::vector<bool> ok_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_mix(std::uint64_t seed) {
  return std::make_unique<ServeMix>(seed);
}

}  // namespace perfbench
