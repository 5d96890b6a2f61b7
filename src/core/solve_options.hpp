// The shared execution knobs of every solver driver.  AdaptiveOptions and
// TrackOptions compose ExecOptions by value (public base subobject), and
// the two batched drivers compose it through core::BatchOptions
// (core/batch_runner.hpp), so opt.parallelism, opt.tile_pool and
// opt.rungs mean the same thing at every call site.
//
//   parallelism — tiled kernel bodies of every Device the driver runs
//     execute as up to `parallelism` concurrent tasks (DESIGN.md §5).
//     Results are bit-identical at every width; the knob changes only how
//     the host spends wall-clock.
//
//   tile_pool — the util::ThreadPool those tasks borrow helpers from.
//     Null with parallelism > 1 means the driver owns a pool for the
//     call; the batch runner (core::run_batch) passes ONE shared pool
//     into every per-item solve so batch-level and tile-level
//     parallelism compose without oversubscription
//     (core::detail::tile_pool_helpers).
//
//   rungs — explicit precision-ladder rung sequence (strictly increasing
//     instantiated limb counts, core/limb_dispatch.hpp); empty means the
//     default doubling ladder.  Drivers without their own ladder (the
//     batched wrappers) forward a non-empty sequence into the per-problem
//     ladder options they compose (AdaptiveOptions / TrackOptions), so
//     one batch-level assignment configures every problem.
#pragma once

#include <vector>

namespace mdlsq::util {
class ThreadPool;
}

namespace mdlsq::core {

// How a staged driver turns its launch schedule into host execution —
// the explicit argument of least_squares(dev, a, b, tile, schedule) and
// DagSolveOptions::schedule (core/dag_solve.hpp):
//   fork_join — every launch is a barrier: its tiled tasks fan out over
//     the pool and join before the next launch issues (DESIGN.md §5);
//   dag — launches become nodes of a device::TaskGraph with explicit
//     event edges and run event-driven (per-device ready queues, work
//     stealing, no wave barriers — DESIGN.md §13).  Results stay
//     bit-identical to fork_join and sequential, and measured == analytic
//     tallies hold, by construction.
enum class SchedulePolicy { fork_join, dag };

struct ExecOptions {
  // Host execution engine width (DESIGN.md §5): tiled kernel bodies run
  // as up to `parallelism` concurrent tasks.  Bit-identical at any width.
  int parallelism = 1;
  // Shared tile pool; null means the driver owns one when parallelism > 1.
  util::ThreadPool* tile_pool = nullptr;
  // Explicit precision-ladder rung sequence; empty means the default
  // doubling ladder.  Validation semantics are core::resolve_rungs'.
  std::vector<int> rungs;
};

}  // namespace mdlsq::core
