// Batched multi-device path tracking: B independent homotopy paths
// sharded over a core::DevicePool and tracked concurrently on a host
// thread pool — the tracking analogue of core/batched_lsq.hpp, with the
// same guarantees by the same argument (DESIGN.md §2/§7):
//
//   * per-path isolation — every path's steps run against fresh Device
//     instances on the path's pool slot and share no mutable state, so
//     batched results are limb-identical to sequential track() calls at
//     any pool width, sharding policy or thread count;
//   * exact tally conservation — the batch aggregate equals the sum of
//     the per-path device tallies (integer counters, summed in path-index
//     order);
//   * LPT sharding — the greedy policy prices each path with the
//     tracker's dry-run schedule (track_dry), at the first rung of the
//     same resolved ladder the path is tracked with.
//
// Sharding, host execution (one job per shard, one shared tile pool) and
// the per-slot report rows are the shared batch runner's
// (core/batch_runner.hpp), exactly as in the batched least-squares
// driver; this driver adds the per-path report rows.
#pragma once

#include <utility>
#include <vector>

#include "core/batch_runner.hpp"
#include "path/tracker.hpp"
#include "util/batch_report.hpp"
#include "util/thread_pool.hpp"

namespace mdlsq::path {

// One path of the batch.
template <int NH>
struct TrackProblem {
  Homotopy<md::mdreal<NH>> homotopy;

  static TrackProblem functional(Homotopy<md::mdreal<NH>> h) {
    return {std::move(h)};
  }
};

// Inherits the batch knobs from core::BatchOptions (batch_runner.hpp); a
// non-empty `rungs` overrides `track.rungs` so one batch-level assignment
// configures every path's per-step ladder.
struct BatchedTrackOptions : core::BatchOptions {
  TrackOptions track;
};

template <int NH>
struct BatchedPathResult {
  int path = -1;
  int device = -1;           // pool slot the path was served by
  TrackResult<NH> result;
};

template <int NH>
struct BatchedTrackResult {
  std::vector<BatchedPathResult<NH>> paths;  // indexed by path id
  std::vector<std::vector<int>> shards;      // pool slot -> path ids
  util::BatchReport report;
};

namespace detail {

// The per-path tracker options: the batch's tile-level execution engine
// plus the batch-level rung override, so pricing and execution see the
// same ladder.
inline TrackOptions path_track_options(const BatchedTrackOptions& opt,
                                       util::ThreadPool* tile_pool) {
  TrackOptions t = opt.track;
  t.parallelism = opt.parallelism;
  t.tile_pool = tile_pool;
  if (!opt.rungs.empty()) t.rungs = opt.rungs;
  return t;
}

}  // namespace detail

// The batched driver: shard, track every shard on the shared batch
// runner, then add the per-path report rows.
template <int NH>
BatchedTrackResult<NH> batched_track(
    const core::DevicePool& pool,
    const std::vector<TrackProblem<NH>>& problems,
    const BatchedTrackOptions& opt = {}) {
  const TrackOptions dry_opt = detail::path_track_options(opt, nullptr);
  for (const auto& p : problems)
    check_track_options(p.homotopy.dim(), dry_opt, NH);
  BatchedTrackResult<NH> out;
  out.shards = core::assign_shards(
      pool, static_cast<int>(problems.size()), opt,
      [&](const device::DeviceSpec& spec, int i) {
        const auto& h = problems[static_cast<std::size_t>(i)].homotopy;
        return track_dry<NH>(spec, h.dim(), h.a_terms(), h.b_terms(), dry_opt)
            .wall_ms;
      });
  out.paths.resize(problems.size());

  util::BatchReport& rep = out.report;
  rep.precision = md::Precision(NH);
  rep.pipeline = "tracker";
  core::run_batch(
      pool, out.shards, opt,
      [&](const device::DeviceSpec& spec, int slot, int i,
          util::ThreadPool* tile_pool) {
        const auto& p = problems[static_cast<std::size_t>(i)];
        auto& r = out.paths[static_cast<std::size_t>(i)];
        r.path = i;
        r.device = slot;
        r.result = track<NH>(spec, p.homotopy,
                             detail::path_track_options(opt, tile_pool));
        return core::ItemCost{r.result.device_analytic(), r.result.dp_gflop(),
                              r.result.kernel_ms(), r.result.wall_ms()};
      },
      rep);

  // Per-path rows of the report (steps, corrections, reached precision).
  for (const auto& pr : out.paths) {
    util::BatchPathRow prow;
    prow.path = pr.path;
    prow.device = pr.device;
    prow.steps = static_cast<int>(pr.result.steps.size());
    prow.correction_solves = pr.result.correction_solves();
    prow.final_precision = pr.result.final_precision;
    prow.converged = pr.result.converged;
    prow.tally = pr.result.device_analytic();
    prow.kernel_ms = pr.result.kernel_ms();
    rep.paths.push_back(std::move(prow));
  }
  return out;
}

}  // namespace mdlsq::path
