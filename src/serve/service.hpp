// The solver service (DESIGN.md §11): a persistent daemon over a
// core::DevicePool that turns the repo's one-shot drivers into a
// long-running, admission-controlled, fair-share request server.
//
//   admission control — submit() prices every request with the dry-run
//     walk of the pipeline it runs cold (the resident pipeline
//     core::least_squares_resident_run, adaptive_least_squares_dry,
//     track_dry) against the pool's first slot and rejects WITH A REASON
//     when the queue depth or the modeled-cost backlog would exceed the
//     configured limits.  Rejection is a Response (the future resolves
//     immediately with JobStatus::rejected); malformed requests throw
//     std::invalid_argument from submit() instead — capacity is data,
//     misuse is an exception.
//
//   fair-share scheduling — accepted jobs queue per tenant (FIFO within
//     a tenant, so job ids also order execution per tenant); each worker
//     serves the tenant with the LEAST modeled cost dispatched so far,
//     so a tenant flooding the queue with expensive jobs cannot starve a
//     light one: cost, not job count, is the fairness currency, and the
//     dry-run pricers supply it machine-independently.
//
//   factor cache — fixed-precision LsqJobs consult the FactorCache
//     before factorizing.  A hit (the cached operand verified equal to
//     the request's A, limb by limb) stages ONLY the right-hand side and
//     replays core::staged_lsq_finish against the thin resident cached
//     factors — the identical post-factorization launches the cold path
//     issues — so warm results are limb-identical to cold results and
//     measured == analytic holds unchanged (the warm schedule is a
//     subset of the cold schedule, not a different algorithm).  A miss
//     runs the resident pipeline (core::least_squares_resident_run) and
//     inserts its still-resident factors, trimmed to the thin form.
//
//   execution — one worker thread per pool slot, each running jobs on
//     its slot's DeviceSpec with a fresh Device per job (the batched
//     drivers' isolation argument: results are bit-identical to
//     sequential solves and tallies are exact per job, so service-level
//     conservation — sum of per-job tallies == aggregate report tally —
//     holds by construction).  Tiled kernel bodies of every job may
//     additionally fan out over ONE shared tile pool (DESIGN.md §5),
//     sized once for the whole service.
//
// Every completed job streams its util::BatchDeviceRow to the optional
// row sink and folds it into the aggregate util::BatchReport via
// BatchReport::absorb, giving the daemon the same table the batched
// drivers print.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "core/adaptive_lsq.hpp"
#include "core/batch_runner.hpp"
#include "core/least_squares.hpp"
#include "core/solve_options.hpp"
#include "device/launch.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "path/tracker.hpp"
#include "serve/api.hpp"
#include "serve/factor_cache.hpp"
#include "util/batch_report.hpp"
#include "util/thread_pool.hpp"

namespace mdlsq::serve {

struct ServiceOptions {
  // Admission control: reject when this many jobs are already queued...
  int queue_limit = 64;
  // ...or when the queued modeled cost plus the new job's would exceed
  // this many modeled milliseconds.  0 disables the backlog limit.
  double backlog_limit_ms = 0.0;
  // Factor cache byte budget; 0 disables caching entirely.
  std::int64_t cache_bytes = std::int64_t(64) << 20;
  // Tile-level width per job (DESIGN.md §5); the service owns one shared
  // tile pool sized for pool.size() concurrent jobs.
  int parallelism = 1;
  // Streamed per-job report rows, called as each job completes (from the
  // worker thread that ran it; the sink must be thread-safe).  The job id
  // is row.problems[0].  drain() returns only after every sink call of
  // the jobs it waited for has returned.
  std::function<void(const util::BatchDeviceRow&)> row_sink;
  // Optional telemetry sink (DESIGN.md §12): admission counters by
  // outcome, queue depth / backlog gauges, queue-wait histogram,
  // per-tenant dispatched cost and factor-cache traffic.  Not owned; must
  // outlive the service.  Null disables metric emission entirely.
  obs::MetricsRegistry* metrics = nullptr;
};

// Aggregate counters of one service instance.  The tally pair is the
// service-level conservation invariant: analytic == measured, and both
// equal the sum of the per-job Response tallies and the aggregate
// report's tally.
struct ServiceStats {
  std::int64_t submitted = 0;
  std::int64_t accepted = 0;
  std::int64_t rejected = 0;
  // Rejects by reason; always sums to `rejected` (there are exactly two
  // admission fences).
  std::int64_t rejected_queue_depth = 0;
  std::int64_t rejected_backlog = 0;
  std::int64_t completed = 0;
  std::int64_t failed = 0;      // job threw; exception forwarded to future
  std::int64_t queued = 0;      // currently waiting
  std::int64_t running = 0;     // currently executing
  double backlog_ms = 0.0;      // modeled cost currently queued
  // Factor-cache traffic, mirrored from FactorCacheStats at stats() time
  // so one snapshot carries the whole service picture.
  std::int64_t cache_hits = 0;
  std::int64_t cache_misses = 0;
  std::int64_t cache_verify_failures = 0;  // misses whose key collided
  std::int64_t cache_evictions = 0;
  md::OpTally analytic;         // summed over completed jobs
  md::OpTally measured;
  double kernel_ms = 0.0;
  double wall_ms = 0.0;
};

template <int NH>
class SolverService {
  using T = md::mdreal<NH>;

 public:
  explicit SolverService(core::DevicePool pool, ServiceOptions opt = {})
      : pool_(std::move(pool)), opt_(std::move(opt)),
        cache_(opt_.cache_bytes > 0 ? opt_.cache_bytes : 0) {
    if (pool_.size() < 1)
      throw std::invalid_argument("mdlsq: SolverService needs a nonempty pool");
    if (opt_.queue_limit < 1)
      throw std::invalid_argument(
          "mdlsq: SolverService queue limit must be >= 1");
    if (opt_.backlog_limit_ms < 0)
      throw std::invalid_argument(
          "mdlsq: SolverService backlog limit must be >= 0");
    if (opt_.parallelism < 1)
      throw std::invalid_argument(
          "mdlsq: SolverService parallelism must be >= 1");
    report_.precision = md::Precision(NH);
    report_.policy = "fair-share";
    report_.pipeline = "serve";
    const int helpers =
        core::detail::tile_pool_helpers(pool_.size(), opt_.parallelism);
    if (helpers > 0) tile_pool_.emplace(helpers);
    workers_.reserve(static_cast<std::size_t>(pool_.size()));
    for (int s = 0; s < pool_.size(); ++s)
      workers_.emplace_back([this, s] { worker_loop(s); });
  }

  SolverService(const SolverService&) = delete;
  SolverService& operator=(const SolverService&) = delete;

  ~SolverService() {
    drain();
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    cv_.notify_all();
    for (auto& w : workers_) w.join();
  }

  // Prices, admits (or rejects), and enqueues one request.  Thread-safe.
  SubmitTicket<NH> submit(Request<NH> req) {
    validate(req);
    const double cost = price(req);

    const std::string tenant = req.tenant.empty() ? "default" : req.tenant;

    Job job;
    job.tenant = tenant;
    job.req = std::move(req);
    job.cost_ms = cost;
    job.submitted_ns = obs::now_ns();  // queue-wait span / histogram start

    SubmitTicket<NH> ticket;
    ticket.result = job.promise.get_future();

    std::string reject;
    bool depth_reject = false;
    std::int64_t depth_now = 0;
    double backlog_now = 0.0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      job.id = next_id_++;
      ticket.id = job.id;
      ++stats_.submitted;
      if (stats_.queued >= opt_.queue_limit) {
        reject = "queue depth " + std::to_string(stats_.queued) +
                 " at limit " + std::to_string(opt_.queue_limit);
        depth_reject = true;
      } else if (opt_.backlog_limit_ms > 0 &&
                 stats_.backlog_ms + cost > opt_.backlog_limit_ms) {
        reject = "modeled backlog " + format_ms(stats_.backlog_ms) +
                 " ms + job " + format_ms(cost) + " ms exceeds limit " +
                 format_ms(opt_.backlog_limit_ms) + " ms";
      }
      if (reject.empty()) {
        ++stats_.accepted;
        ++stats_.queued;
        stats_.backlog_ms += cost;
        queues_[tenant].push_back(std::move(job));
      } else {
        ++stats_.rejected;
        if (depth_reject)
          ++stats_.rejected_queue_depth;
        else
          ++stats_.rejected_backlog;
      }
      depth_now = stats_.queued;
      backlog_now = stats_.backlog_ms;
    }

    if (obs::MetricsRegistry* m = opt_.metrics) {
      m->counter_add("serve.submitted");
      if (reject.empty())
        m->counter_add("serve.accepted");
      else
        m->counter_add(depth_reject ? "serve.rejected.queue_depth"
                                    : "serve.rejected.backlog");
      m->gauge_set("serve.queue_depth", static_cast<double>(depth_now));
      m->gauge_set("serve.backlog_ms", backlog_now);
    }

    if (reject.empty()) {
      ticket.accepted = true;
      cv_.notify_one();
    } else {
      ticket.accepted = false;
      ticket.reject_reason = reject;
      Response<NH> resp;
      resp.id = ticket.id;
      resp.tenant = tenant;
      resp.status = JobStatus::rejected;
      resp.reject_reason = reject;
      resp.modeled_cost_ms = cost;
      job.promise.set_value(std::move(resp));
    }
    return ticket;
  }

  // Blocks until every accepted job has completed.  Jobs submitted while
  // draining extend the wait.
  void drain() {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait(lock,
                  [this] { return stats_.queued == 0 && stats_.running == 0; });
  }

  ServiceStats stats() const {
    ServiceStats s;
    {
      std::lock_guard<std::mutex> lock(mu_);
      s = stats_;
    }
    const FactorCacheStats cs = cache_.stats();
    s.cache_hits = cs.hits;
    s.cache_misses = cs.misses;
    s.cache_verify_failures = cs.verify_failures;
    s.cache_evictions = cs.evictions;
    return s;
  }
  FactorCacheStats cache_stats() const { return cache_.stats(); }
  util::BatchReport report() const {
    std::lock_guard<std::mutex> lock(mu_);
    return report_;
  }
  const core::DevicePool& pool() const noexcept { return pool_; }

 private:
  struct Job {
    std::uint64_t id = 0;
    std::string tenant;
    Request<NH> req;
    double cost_ms = 0.0;
    std::int64_t submitted_ns = 0;  // monotonic submit time (queue wait)
    std::promise<Response<NH>> promise;
  };

  static std::string format_ms(double ms) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", ms);
    return buf;
  }

  // Malformed requests throw here, before any id is spent.
  static void validate(const Request<NH>& req) {
    if (const auto* j = std::get_if<LsqJob<NH>>(&req.job)) {
      validate_lsq_shape(j->a, j->b, j->tile, "LsqJob");
    } else if (const auto* aj = std::get_if<AdaptiveLsqJob<NH>>(&req.job)) {
      validate_lsq_shape(aj->a, aj->b, aj->opt.tile, "AdaptiveLsqJob");
    } else if (const auto* tj = std::get_if<TrackJob<NH>>(&req.job)) {
      path::check_track_options(tj->h.dim(), tj->opt, NH);
    }
  }

  // The solvers' shape contract (core::qr_shape_error), plus at least one
  // column and a right-hand side of the row count.
  static void validate_lsq_shape(const blas::Matrix<T>& a,
                                 const blas::Vector<T>& b, int tile,
                                 const char* kind) {
    const char* err = a.cols() < 1
                          ? "needs at least one column"
                          : core::qr_shape_error(a.rows(), a.cols(), tile);
    if (err == nullptr && static_cast<int>(b.size()) != a.rows())
      err = "right-hand side length must equal the row count";
    if (err != nullptr)
      throw std::invalid_argument(std::string("mdlsq: ") + kind + ": " + err);
  }

  // Admission price: the modeled wall time of the job's dry-run schedule
  // against the pool's first slot (heterogeneous pools are priced at
  // slot 0; fairness only needs a consistent currency).  An LsqJob is
  // priced as a miss: the resident pipeline's walk, which is exactly
  // what a cold job on that spec costs (a hit costs less).
  double price(const Request<NH>& req) const {
    const device::DeviceSpec& spec = *pool_.slots[0];
    if (const auto* j = std::get_if<LsqJob<NH>>(&req.job)) {
      device::Device dev(spec, md::Precision(NH), device::ExecMode::dry_run);
      core::least_squares_resident_run<T>(dev, nullptr, nullptr, j->a.rows(),
                                          j->a.cols(), j->tile);
      return dev.wall_ms();
    }
    if (const auto* aj = std::get_if<AdaptiveLsqJob<NH>>(&req.job))
      return core::adaptive_least_squares_dry<T>(spec, aj->a.rows(),
                                                 aj->a.cols(), aj->opt)
          .wall_ms();
    const auto& tj = std::get<TrackJob<NH>>(req.job);
    return path::track_dry<NH>(spec, tj.h.dim(), tj.h.a_terms(),
                               tj.h.b_terms(), tj.opt)
        .wall_ms;
  }

  // Fair-share pop (mu_ held): the tenant with the least modeled cost
  // dispatched so far goes first (ties broken by tenant name for
  // determinism); FIFO within the tenant.  The job's cost is charged at
  // dispatch so concurrent workers immediately see the updated share.
  Job pop_fair_locked() {
    auto best = queues_.end();
    for (auto it = queues_.begin(); it != queues_.end(); ++it) {
      if (it->second.empty()) continue;
      if (best == queues_.end() ||
          served_[it->first] < served_[best->first])
        best = it;
    }
    Job job = std::move(best->second.front());
    best->second.pop_front();
    served_[best->first] += job.cost_ms;
    --stats_.queued;
    stats_.backlog_ms -= job.cost_ms;
    ++stats_.running;
    return job;
  }

  void worker_loop(int slot) {
    for (;;) {
      Job job;
      double tenant_share = 0.0;
      std::int64_t depth_now = 0;
      {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [this] { return stopping_ || stats_.queued > 0; });
        if (stats_.queued == 0) {
          if (stopping_) return;
          continue;
        }
        job = pop_fair_locked();
        tenant_share = served_[job.tenant];
        depth_now = stats_.queued;
      }

      // Queue wait: the span opened at submit on the client thread and
      // closes here at dispatch, so it lands in THIS worker's ring with
      // explicit timestamps; modeled_ms carries the admission price.
      const std::int64_t dispatch_ns = obs::now_ns();
      obs::emit_span("queue wait", obs::Cat::queue, job.submitted_ns,
                     dispatch_ns, NH, job.cost_ms);
      if (obs::MetricsRegistry* m = opt_.metrics) {
        m->observe("serve.queue_wait_ms",
                   static_cast<double>(dispatch_ns - job.submitted_ns) / 1e6);
        m->gauge_set("serve.queue_depth", static_cast<double>(depth_now));
        m->gauge_set("serve.tenant." + job.tenant + ".dispatched_ms",
                     tenant_share);
      }

      Response<NH> resp;
      bool ok = true;
      std::exception_ptr error;
      try {
        // Parent span over the job's whole execution; every launch,
        // transfer, ladder rung or tracker step it issues nests inside.
        obs::Span job_span("job", obs::Cat::service, NH);
        job_span.set_modeled_ms(job.cost_ms);
        resp = execute(slot, job);
      } catch (...) {
        ok = false;
        error = std::current_exception();
      }

      // The sink runs BEFORE the completion block below: drain() waits
      // for running == 0 under mu_, so every sink call happens-before
      // drain() returns and the caller may read what the sink wrote.  A
      // sink that throws fails its job like a throwing solve: the future
      // carries the exception and the worker carries on.
      if (ok && opt_.row_sink) {
        try {
          opt_.row_sink(resp.row);
        } catch (...) {
          ok = false;
          error = std::current_exception();
        }
      }
      {
        std::lock_guard<std::mutex> lock(mu_);
        --stats_.running;
        if (ok) {
          ++stats_.completed;
          stats_.analytic += resp.analytic;
          stats_.measured += resp.measured;
          stats_.kernel_ms += resp.kernel_ms;
          stats_.wall_ms += resp.wall_ms;
          report_.absorb(resp.row);
          for (const auto& r : resp.rungs) report_.absorb_rung(r);
          if (std::holds_alternative<TrackJob<NH>>(job.req.job))
            report_.absorb_path(util::BatchPathRow{
                static_cast<int>(resp.id), slot, resp.steps,
                resp.correction_solves, resp.final_precision, resp.converged,
                resp.analytic, resp.kernel_ms});
        } else {
          ++stats_.failed;
        }
      }
      if (ok)
        job.promise.set_value(std::move(resp));
      else
        job.promise.set_exception(error);
      idle_cv_.notify_all();
    }
  }

  // Runs one job on this worker's pool slot; fills everything but the
  // scheduling fields of the Response.
  Response<NH> execute(int slot, Job& job) {
    const device::DeviceSpec& spec = *pool_.slots[static_cast<std::size_t>(
        slot)];
    Response<NH> resp;
    resp.id = job.id;
    resp.tenant = job.tenant;
    resp.modeled_cost_ms = job.cost_ms;

    if (auto* j = std::get_if<LsqJob<NH>>(&job.req.job)) {
      run_lsq(spec, *j, resp);
    } else if (auto* aj = std::get_if<AdaptiveLsqJob<NH>>(&job.req.job)) {
      run_adaptive(spec, *aj, resp);
    } else {
      run_track(spec, std::get<TrackJob<NH>>(job.req.job), resp);
    }

    resp.row.device = slot;
    resp.row.name = spec.name;
    resp.row.problems = {static_cast<int>(resp.id)};
    resp.row.tally = resp.analytic;
    resp.row.kernel_ms = resp.kernel_ms;
    resp.row.wall_ms = resp.wall_ms;
    return resp;
  }

  // Fixed-precision least squares through the factor cache.  Warm path:
  // stage b only, replay the shared post-factorization stages against
  // the cached thin resident factors (limb-identical to cold by
  // construction — see core::staged_lsq_finish).  Cold path: the
  // resident pipeline, then its factors go into the cache next to A.
  void run_lsq(const device::DeviceSpec& spec, LsqJob<NH>& job,
               Response<NH>& resp) {
    const int M = job.a.rows(), C = job.a.cols();
    device::Device dev(spec, md::Precision(NH),
                       device::ExecMode::functional);
    dev.set_parallelism(tile_pool_ ? &*tile_pool_ : nullptr,
                        opt_.parallelism);

    std::shared_ptr<const CachedFactors<T>> cached;
    std::uint64_t key = 0;
    if (opt_.cache_bytes > 0) {
      key = fingerprint(job.a);
      cached = cache_.find(key, job.a);
    }

    if (cached != nullptr) {
      obs::Span span("cache hit", obs::Cat::cache, NH);
      device::Staged1D<T> sb = dev.stage(job.b);
      device::Staged1D<T> y = core::staged_lsq_finish<T>(
          dev, &cached->qr.q, &cached->qr.rtop, &sb, M, C, job.tile);
      resp.x = dev.unstage(y);
      resp.cache_hit = true;
    } else {
      obs::Span span("cache miss", obs::Cat::cache, NH);
      core::ResidentLsq<T> sol = core::least_squares_resident_run<T>(
          dev, &job.a, &job.b, M, C, job.tile);
      resp.x = std::move(sol.x);
      if (opt_.cache_bytes > 0)
        cache_.insert(key, std::make_shared<const CachedFactors<T>>(
                               job.a, core::ResidentQr<T>::from_staged(
                                          std::move(sol.factors), C)));
    }
    if (obs::MetricsRegistry* m = opt_.metrics;
        m != nullptr && opt_.cache_bytes > 0) {
      m->counter_add(resp.cache_hit ? "serve.cache.hits"
                                    : "serve.cache.misses");
      const FactorCacheStats cs = cache_.stats();
      m->gauge_set("serve.cache.entries", static_cast<double>(cs.entries));
      m->gauge_set("serve.cache.bytes", static_cast<double>(cs.bytes));
      m->gauge_set("serve.cache.evictions",
                   static_cast<double>(cs.evictions));
      m->gauge_set("serve.cache.verify_failures",
                   static_cast<double>(cs.verify_failures));
    }
    resp.analytic = dev.analytic_total();
    resp.measured = dev.measured_total();
    resp.kernel_ms = dev.kernel_ms();
    resp.wall_ms = dev.wall_ms();
    resp.row.dp_gflop = resp.analytic.dp_flops(md::Precision(NH)) * 1e-9;
  }

  void run_adaptive(const device::DeviceSpec& spec, AdaptiveLsqJob<NH>& job,
                    Response<NH>& resp) {
    core::AdaptiveOptions aopt = job.opt;
    aopt.parallelism = opt_.parallelism;
    aopt.tile_pool = tile_pool_ ? &*tile_pool_ : nullptr;
    auto sol = core::adaptive_least_squares<NH>(spec, job.a, job.b, aopt);
    resp.x = std::move(sol.x);
    resp.converged = sol.converged;
    resp.final_precision = sol.final_precision;
    resp.analytic = sol.device_analytic();
    resp.measured = sol.device_measured();
    resp.kernel_ms = sol.kernel_ms();
    resp.wall_ms = sol.wall_ms();
    resp.row.dp_gflop = sol.dp_gflop();
    resp.rungs = std::move(sol.rungs);
  }

  void run_track(const device::DeviceSpec& spec, const TrackJob<NH>& job,
                 Response<NH>& resp) {
    path::TrackOptions topt = job.opt;
    topt.parallelism = opt_.parallelism;
    topt.tile_pool = tile_pool_ ? &*tile_pool_ : nullptr;
    auto res = path::track<NH>(spec, job.h, topt);
    resp.x = std::move(res.x);
    resp.converged = res.converged;
    resp.final_precision = res.final_precision;
    resp.analytic = res.device_analytic();
    resp.measured = res.device_measured();
    resp.kernel_ms = res.kernel_ms();
    resp.wall_ms = res.wall_ms();
    resp.row.dp_gflop = res.dp_gflop();
    resp.steps = static_cast<int>(res.steps.size());
    resp.correction_solves = res.correction_solves();
  }

  core::DevicePool pool_;
  ServiceOptions opt_;
  FactorCache<T> cache_;
  std::optional<util::ThreadPool> tile_pool_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  bool stopping_ = false;
  std::uint64_t next_id_ = 1;
  std::map<std::string, std::deque<Job>> queues_;   // per-tenant FIFO
  std::map<std::string, double> served_;            // dispatched cost
  ServiceStats stats_;
  util::BatchReport report_;
  std::vector<std::thread> workers_;
};

}  // namespace mdlsq::serve
