// Batched multi-device least squares: B independent problems
// min_x ||b_i - A_i x_i||_2 sharded across a pool of simulated devices
// and solved concurrently on a host thread pool.
//
// Each problem runs the resident single-problem pipeline — A, b in,
// blocked Householder QR (Algorithm 2), Q^H b, tiled back substitution
// (Algorithm 1), x out; the driver returns only x, so the factors are
// never unstaged — or the adaptive precision ladder around it, against
// its own Device instance, so batched results are bit-identical to
// sequential solves regardless of pool width, sharding policy or thread
// count (DESIGN.md §2).  The per-problem Device also gives exact
// per-problem operation tallies, which the batch report aggregates per
// pool slot; tally conservation (batch total == sum of per-problem
// tallies) holds by construction and is pinned by
// tests/test_batched_lsq.cpp.
//
// Sharding, host execution and the per-slot report are the shared batch
// runner's (core/batch_runner.hpp); this driver supplies the dry-run
// pricer, the per-problem solve and the per-rung escalation rows.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/adaptive_lsq.hpp"
#include "core/batch_runner.hpp"
#include "core/least_squares.hpp"
#include "device/device_spec.hpp"
#include "device/launch.hpp"
#include "util/batch_report.hpp"
#include "util/thread_pool.hpp"

namespace mdlsq::core {

// The per-problem pipeline.  `direct` is the fixed-precision resident
// device solve (core::least_squares_resident_run);
// `adaptive` climbs the precision ladder per problem (adaptive_lsq.hpp),
// so one batch can mix rungs — each problem pays only for the precision
// its conditioning demands.
enum class BatchPipeline { direct, adaptive };

inline const char* name_of(BatchPipeline p) noexcept {
  switch (p) {
    case BatchPipeline::direct: return "direct";
    case BatchPipeline::adaptive: return "adaptive";
  }
  return "?";
}

// One problem of the batch.
template <class T>
struct BatchProblem {
  blas::Matrix<T> a;
  blas::Vector<T> b;

  static BatchProblem functional(blas::Matrix<T> mat, blas::Vector<T> rhs) {
    return {std::move(mat), std::move(rhs)};
  }
};

// Inherits the batch knobs from core::BatchOptions (batch_runner.hpp).  A
// non-empty `rungs` overrides `adaptive.rungs`, so one batch-level
// assignment configures every problem's ladder.  Results are
// bit-identical at every width.
struct BatchedLsqOptions : BatchOptions {
  int tile = 8;
  BatchPipeline pipeline = BatchPipeline::direct;
  // Ladder parameters of the adaptive pipeline (its tile is overridden by
  // `tile` above so both pipelines schedule identically).  Real scalar
  // types only.
  AdaptiveOptions adaptive;
};

template <class T>
struct BatchedProblemResult {
  int problem = -1;
  int device = -1;            // pool slot the problem was served by
  blas::Vector<T> x;
  md::OpTally analytic;       // declared launch tallies of the device solve
  md::OpTally measured;       // counted from the functional kernel bodies
  double kernel_ms = 0.0;     // modeled kernel time
  double wall_ms = 0.0;       // modeled wall time (kernel + transfers)
  // Converted per rung at its true device precision (equals
  // analytic.dp_flops(precision of T) for the direct pipeline).
  double dp_gflop = 0.0;
  // Adaptive pipeline only: the ladder this problem climbed.
  std::vector<util::RungStats> rungs;
  bool converged = true;
  md::Precision final_precision = md::Precision(blas::scalar_traits<T>::limbs);
};

template <class T>
struct BatchedLsqResult {
  std::vector<BatchedProblemResult<T>> problems;  // indexed by problem id
  std::vector<std::vector<int>> shards;           // pool slot -> problem ids
  util::BatchReport report;
};

namespace detail {

// The batched adaptive options: the ladder inherits the batch tile so
// both pipelines schedule identically, plus the batch's tile-level
// execution engine.  A non-empty batch-level rung sequence overrides the
// nested ladder's so one assignment configures every problem.
inline AdaptiveOptions ladder_options(const BatchedLsqOptions& opt,
                                      util::ThreadPool* tile_pool) {
  AdaptiveOptions a = opt.adaptive;
  a.tile = opt.tile;
  a.parallelism = opt.parallelism;
  a.tile_pool = tile_pool;
  if (!opt.rungs.empty()) a.rungs = opt.rungs;
  return a;
}

// The adaptive ladder runs on real scalars only.  The check must survive
// NDEBUG: silently serving a direct solve under an "adaptive" label would
// hand the caller results from a pipeline they did not ask for.  Every
// entry point runs it first, so the per-problem code below never meets
// a complex adaptive batch.
template <class T>
void require_pipeline_supported(const BatchedLsqOptions& opt) {
  if (blas::is_complex_v<T> && opt.pipeline == BatchPipeline::adaptive)
    throw std::invalid_argument(
        "mdlsq: BatchPipeline::adaptive requires a real scalar type");
}

// Every problem's shape, checked on the calling thread before pricing or
// any solve, so a bad problem is reported by its index and never reaches
// a worker: the least-squares contract (qr_shape_error) at the batch
// tile, plus a matching right-hand side.  Throws std::invalid_argument,
// kept under NDEBUG.
template <class T>
void require_valid_problems(const std::vector<BatchProblem<T>>& problems,
                            const BatchedLsqOptions& opt) {
  for (std::size_t i = 0; i < problems.size(); ++i) {
    const BatchProblem<T>& p = problems[i];
    const char* err = qr_shape_error(p.a.rows(), p.a.cols(), opt.tile);
    if (err == nullptr && static_cast<int>(p.b.size()) != p.a.rows())
      err = "right-hand side length must equal the row count";
    if (err != nullptr)
      throw std::invalid_argument("mdlsq: batched_least_squares problem " +
                                  std::to_string(i) + ": " + err);
  }
}

// Solves one problem with the adaptive ladder (real scalars only).
template <class T>
BatchedProblemResult<T> solve_one_adaptive(const device::DeviceSpec& spec,
                                           int slot, int idx,
                                           const BatchProblem<T>& p,
                                           const BatchedLsqOptions& opt,
                                           util::ThreadPool* tile_pool) {
  static_assert(!blas::is_complex_v<T>,
                "the adaptive pipeline runs on real problems");
  constexpr int NH = blas::scalar_traits<T>::limbs;
  const AdaptiveOptions aopt = ladder_options(opt, tile_pool);

  auto sol = adaptive_least_squares<NH>(spec, p.a, p.b, aopt);
  BatchedProblemResult<T> r;
  r.problem = idx;
  r.device = slot;
  r.x = std::move(sol.x);
  r.analytic = sol.device_analytic();
  r.measured = sol.device_measured();
  r.kernel_ms = sol.kernel_ms();
  r.wall_ms = sol.wall_ms();
  r.dp_gflop = sol.dp_gflop();
  r.rungs = std::move(sol.rungs);
  r.converged = sol.converged;
  r.final_precision = sol.final_precision;
  return r;
}

// Solves one problem against a fresh Device on the given pool slot: the
// resident pipeline, whose factors are dropped with the device.
template <class T>
BatchedProblemResult<T> solve_one(const device::DeviceSpec& spec, int slot,
                                  int idx, const BatchProblem<T>& p,
                                  const BatchedLsqOptions& opt,
                                  util::ThreadPool* tile_pool) {
  if constexpr (!blas::is_complex_v<T>) {
    if (opt.pipeline == BatchPipeline::adaptive)
      return solve_one_adaptive<T>(spec, slot, idx, p, opt, tile_pool);
  }
  const auto prec = md::Precision(blas::scalar_traits<T>::limbs);
  device::Device dev(spec, prec, device::ExecMode::functional);
  dev.set_parallelism(tile_pool, opt.parallelism);

  BatchedProblemResult<T> r;
  r.problem = idx;
  r.device = slot;
  r.x = least_squares_resident_run<T>(dev, &p.a, &p.b, p.a.rows(),
                                      p.a.cols(), opt.tile)
            .x;
  r.analytic = dev.analytic_total();
  r.measured = dev.measured_total();
  r.kernel_ms = dev.kernel_ms();
  r.wall_ms = dev.wall_ms();
  r.dp_gflop = r.analytic.dp_flops(prec) * 1e-9;
  return r;
}

// Modeled wall time of one problem, from a dry run of the identical
// launch schedule (no arithmetic, no matrix storage): a direct problem's
// price equals its solve's wall_ms.  Adaptive problems are priced with
// the ladder's dry schedule.
template <class T>
double modeled_wall_ms(const device::DeviceSpec& spec, const BatchProblem<T>& p,
                       const BatchedLsqOptions& opt) {
  const int m = p.a.rows(), c = p.a.cols();
  if constexpr (!blas::is_complex_v<T>) {
    if (opt.pipeline == BatchPipeline::adaptive)
      return adaptive_least_squares_dry<T>(spec, m, c,
                                           ladder_options(opt, nullptr))
          .wall_ms();
  }
  const auto prec = md::Precision(blas::scalar_traits<T>::limbs);
  device::Device dev(spec, prec, device::ExecMode::dry_run);
  least_squares_resident_run<T>(dev, nullptr, nullptr, m, c, opt.tile);
  return dev.wall_ms();
}

}  // namespace detail

// Computes the pool-slot assignment without running anything; exposed so
// tests and the bench harness can inspect scheduling decisions directly.
template <class T>
std::vector<std::vector<int>> shard_assignment(
    const DevicePool& pool, const std::vector<BatchProblem<T>>& problems,
    const BatchedLsqOptions& opt) {
  detail::require_pipeline_supported<T>(opt);
  detail::require_valid_problems<T>(problems, opt);
  return assign_shards(
      pool, static_cast<int>(problems.size()), opt,
      [&](const device::DeviceSpec& spec, int i) {
        return detail::modeled_wall_ms<T>(
            spec, problems[static_cast<std::size_t>(i)], opt);
      });
}

// The batched driver: shards the problems over the pool and runs them on
// the shared batch runner, then adds the per-rung escalation rows.
template <class T>
BatchedLsqResult<T> batched_least_squares(
    const DevicePool& pool, const std::vector<BatchProblem<T>>& problems,
    const BatchedLsqOptions& opt = {}) {
  BatchedLsqResult<T> out;
  out.shards = shard_assignment(pool, problems, opt);
  out.problems.resize(problems.size());

  util::BatchReport& rep = out.report;
  rep.precision = md::Precision(blas::scalar_traits<T>::limbs);
  rep.pipeline = name_of(opt.pipeline);
  run_batch(
      pool, out.shards, opt,
      [&](const device::DeviceSpec& spec, int slot, int i,
          util::ThreadPool* tile_pool) {
        const auto ii = static_cast<std::size_t>(i);
        auto& pr = out.problems[ii];
        pr = detail::solve_one<T>(spec, slot, i, problems[ii], opt, tile_pool);
        return ItemCost{pr.analytic, pr.dp_gflop, pr.kernel_ms, pr.wall_ms};
      },
      rep);

  // Escalation statistics: one report row per ladder rung that any
  // problem entered, in ladder order, each summed in problem order
  // (adaptive pipeline only).
  if (opt.pipeline == BatchPipeline::adaptive)
    for (const auto& pr : out.problems)
      for (const auto& rg : pr.rungs) rep.absorb_rung(rg);
  return out;
}

}  // namespace mdlsq::core
