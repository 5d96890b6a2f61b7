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
//     tracker's dry-run schedule (track_dry).
//
// Sharding, host execution (one job per shard, one shared tile pool) and
// the per-slot report rows are the shared batch runner's
// (core/batch_runner.hpp), exactly as in the batched least-squares
// driver; this driver adds the per-path report rows.
#pragma once

#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/batch_runner.hpp"
#include "path/tracker.hpp"
#include "util/batch_report.hpp"
#include "util/thread_pool.hpp"

namespace mdlsq::path {

// One path of the batch.  In dry_run mode the homotopy stays empty and
// only the dimensions drive the modeled schedule.
template <int NH>
struct TrackProblem {
  std::optional<Homotopy<md::mdreal<NH>>> homotopy;
  int m = 0;       // used when homotopy is empty (dry run)
  int aterms = 1;
  int bterms = 1;

  int dim() const noexcept { return homotopy ? homotopy->dim() : m; }
  int a_terms() const noexcept {
    return homotopy ? homotopy->a_terms() : aterms;
  }
  int b_terms() const noexcept {
    return homotopy ? homotopy->b_terms() : bterms;
  }

  static TrackProblem functional(Homotopy<md::mdreal<NH>> h) {
    TrackProblem p;
    p.m = h.dim();
    p.aterms = h.a_terms();
    p.bterms = h.b_terms();
    p.homotopy.emplace(std::move(h));
    return p;
  }
  static TrackProblem dry(int m, int aterms, int bterms) {
    TrackProblem p;
    p.m = m;
    p.aterms = aterms;
    p.bterms = bterms;
    return p;
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
  TrackResult<NH> result;    // functional mode
  TrackDryResult dry;        // dry-run mode
};

template <int NH>
struct BatchedTrackResult {
  std::vector<BatchedPathResult<NH>> paths;  // indexed by path id
  std::vector<std::vector<int>> shards;      // pool slot -> path ids
  util::BatchReport report;
};

namespace detail {

// Validation of the paths (thrown std::invalid_argument — these guards
// sit on the service path and must survive NDEBUG).  Every path needs
// positive dimensions and at least constant homotopy terms whether it
// came from a real Homotopy (whose own ctor enforces this) or from
// TrackProblem::dry, where nothing else checks; functional mode needs
// the homotopies themselves.
template <int NH>
void validate_track_batch(const std::vector<TrackProblem<NH>>& problems,
                          const BatchedTrackOptions& opt) {
  for (const auto& p : problems) {
    if (p.dim() < 1)
      throw std::invalid_argument(
          "mdlsq: batched_track paths need dimension >= 1");
    if (p.a_terms() < 1 || p.b_terms() < 1)
      throw std::invalid_argument(
          "mdlsq: batched_track paths need at least constant A and b terms");
    if (opt.mode == device::ExecMode::functional && !p.homotopy)
      throw std::invalid_argument(
          "mdlsq: functional batched_track needs homotopies");
  }
}

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
  detail::validate_track_batch<NH>(problems, opt);
  const TrackOptions dry_opt = detail::path_track_options(opt, nullptr);
  for (const auto& p : problems) check_track_options(p.dim(), dry_opt, NH);
  BatchedTrackResult<NH> out;
  out.shards = core::assign_shards(
      pool, static_cast<int>(problems.size()), opt,
      [&](const device::DeviceSpec& spec, int i) {
        const auto& p = problems[static_cast<std::size_t>(i)];
        return track_dry(spec, p.dim(), p.a_terms(), p.b_terms(), dry_opt)
            .wall_ms;
      });
  out.paths.resize(problems.size());

  const bool fn = opt.mode == device::ExecMode::functional;
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
        if (fn) {
          r.result = track<NH>(spec, *p.homotopy,
                               detail::path_track_options(opt, tile_pool));
          return core::ItemCost{r.result.device_analytic(),
                                r.result.dp_gflop(), r.result.kernel_ms(),
                                r.result.wall_ms()};
        }
        r.dry = track_dry(spec, p.dim(), p.a_terms(), p.b_terms(), dry_opt);
        return core::ItemCost{r.dry.analytic, r.dry.dp_gflop,
                              r.dry.kernel_ms, r.dry.wall_ms};
      },
      rep);

  // Per-path rows of the report (steps, corrections, reached precision).
  for (const auto& pr : out.paths) {
    util::BatchPathRow prow;
    prow.path = pr.path;
    prow.device = pr.device;
    if (fn) {
      prow.steps = static_cast<int>(pr.result.steps.size());
      prow.correction_solves = pr.result.correction_solves();
      prow.final_precision = pr.result.final_precision;
      prow.converged = pr.result.converged;
      prow.tally = pr.result.device_analytic();
      prow.kernel_ms = pr.result.kernel_ms();
    } else {
      prow.steps = pr.dry.steps;
      prow.final_precision = pr.dry.precision;
      prow.converged = true;
      prow.tally = pr.dry.analytic;
      prow.kernel_ms = pr.dry.kernel_ms;
    }
    rep.paths.push_back(std::move(prow));
  }
  return out;
}

}  // namespace mdlsq::path
