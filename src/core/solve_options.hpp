// The shared execution knobs of every solver driver.  AdaptiveOptions and
// TrackOptions compose ExecOptions by value (public base subobject), and
// the two batched drivers compose it through core::BatchOptions
// (core/batch_runner.hpp), so opt.parallelism, opt.tile_pool and
// opt.rungs mean the same thing at every call site.
//
//   parallelism — tiled kernel bodies of every Device the driver runs
//     execute as up to `parallelism` concurrent tasks (DESIGN.md §5).
//     Results are bit-identical at every width; the knob changes only how
//     the host spends wall-clock.  There is one executor: every launch
//     fans its tasks out through Device::launch_tiled and joins before
//     the next launch issues, so no schedule option exists beside this.
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
