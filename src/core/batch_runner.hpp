// The batch decision shared by every batched driver: which pool slot
// serves each item of a batch, and how host threads run the shards.
// core::batched_least_squares and path::batched_track each supply a price
// function, a per-item solve and their own extra report rows; everything
// below is common to both (DESIGN.md §2, §5, §7).
//
//   * assign_shards — round-robin, or greedy LPT on modeled wall time:
//     every item is priced once per distinct slot spec, sorted longest-
//     first by its WORST per-slot estimate, and placed on the slot whose
//     accumulated modeled time grows least (Graham's LPT, 4/3 · OPT on
//     homogeneous pools).  Ties break on item id / slot id, so the
//     schedule is deterministic.
//   * run_batch — one util::ThreadPool job per shard; a shard's items run
//     in order on one worker, mirroring a device stream, each against its
//     own fresh Device.  Items share no mutable state, so results are
//     bit-identical at any pool width, policy or thread count.  Tile-level
//     helpers come from ONE pool shared by all shards (tile_pool_helpers),
//     so batch- and tile-level parallelism compose without oversubscribing
//     the host.  The per-slot util::BatchReport rows are summed in shard
//     order after the join.  A failing item ends its shard, and the
//     lowest failing item id's exception is rethrown after the join.
#pragma once

#include <algorithm>
#include <exception>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/solve_options.hpp"
#include "device/device_spec.hpp"
#include "md/op_counts.hpp"
#include "util/batch_report.hpp"
#include "util/thread_pool.hpp"

namespace mdlsq::core {

enum class ShardPolicy { round_robin, greedy_by_modeled_time };

inline const char* name_of(ShardPolicy p) noexcept {
  switch (p) {
    case ShardPolicy::round_robin: return "round-robin";
    case ShardPolicy::greedy_by_modeled_time: return "greedy-by-modeled-time";
  }
  return "?";
}

// A pool of simulated devices.  Slots may reference different specs
// (heterogeneous pools price shards differently under the greedy policy).
struct DevicePool {
  std::vector<const device::DeviceSpec*> slots;

  static DevicePool homogeneous(const device::DeviceSpec& spec, int n) {
    DevicePool p;
    p.slots.assign(static_cast<std::size_t>(n), &spec);
    return p;
  }
  int size() const noexcept { return static_cast<int>(slots.size()); }
};

// The knobs of a batched driver, on top of the shared execution knobs.
// `parallelism` is the tile-level width per item (DESIGN.md §5); a
// non-null `tile_pool` supplies the shared helper pool externally (the
// serve layer passes its own), null means run_batch sizes and owns one.
struct BatchOptions : ExecOptions {
  ShardPolicy policy = ShardPolicy::round_robin;
  int threads = 0;  // host threads; 0 means one per pool slot
};

// What one item adds to its slot's report row.
struct ItemCost {
  md::OpTally tally;        // analytic device tally
  double dp_gflop = 0.0;    // converted at the item's true precisions
  double kernel_ms = 0.0;
  double wall_ms = 0.0;
};

namespace detail {

// Helper threads of the shared tile pool: each of the `shard_width`
// batch workers wants parallelism-1 helpers (it participates in its own
// tiled launches), but the pool never grows past what the hardware has
// left after the shard workers — while always granting at least one
// item its full requested width, so the parallel code path is exercised
// even on small hosts.
inline int tile_pool_helpers(int shard_width, int parallelism) noexcept {
  if (parallelism <= 1) return 0;
  const int want = shard_width * (parallelism - 1);
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  const int budget = std::max(parallelism - 1, hw - shard_width);
  return std::min(want, budget);
}

}  // namespace detail

// Pool-slot assignment of items [0, n): slot -> ascending item ids.
// `price(spec, i)` is item i's modeled wall time on a device of `spec`,
// called only under the greedy policy, once per item and distinct spec.
// Validates the pool and the batch knobs (std::invalid_argument, kept
// under NDEBUG), so every batched driver checks them before any work.
template <class Price>
std::vector<std::vector<int>> assign_shards(const DevicePool& pool, int n,
                                            const BatchOptions& opt,
                                            Price&& price) {
  const int d = pool.size();
  if (d < 1)
    throw std::invalid_argument(
        "mdlsq: a batch requires a non-empty device pool");
  if (opt.threads < 0)
    throw std::invalid_argument("mdlsq: batch threads must be >= 0");
  if (opt.parallelism < 1)
    throw std::invalid_argument("mdlsq: batch parallelism must be >= 1");
  const auto nn = static_cast<std::size_t>(n);
  std::vector<std::vector<int>> shards(static_cast<std::size_t>(d));

  if (opt.policy == ShardPolicy::round_robin) {
    for (int i = 0; i < n; ++i)
      shards[static_cast<std::size_t>(i % d)].push_back(i);
    return shards;
  }

  std::vector<std::vector<double>> est(static_cast<std::size_t>(d));
  for (std::size_t s = 0; s < est.size(); ++s) {
    for (std::size_t prior = 0; prior < s; ++prior)
      if (pool.slots[prior] == pool.slots[s]) {
        est[s] = est[prior];
        break;
      }
    if (est[s].empty()) {
      est[s].resize(nn);
      for (int i = 0; i < n; ++i)
        est[s][static_cast<std::size_t>(i)] = price(*pool.slots[s], i);
    }
  }

  // Sort key: an item's WORST estimate across the pool's specs.  Slot 0's
  // estimate alone misorders heterogeneous pools — an item cheap on slot 0
  // but expensive on the slot it lands on would be placed late, after the
  // greedy pass has already committed the balanced slots.
  std::vector<double> worst(nn, 0.0);
  for (const auto& e : est)
    for (std::size_t i = 0; i < nn; ++i) worst[i] = std::max(worst[i], e[i]);
  std::vector<int> order(nn);
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return worst[static_cast<std::size_t>(a)] >
           worst[static_cast<std::size_t>(b)];
  });

  std::vector<double> load(static_cast<std::size_t>(d), 0.0);
  for (int i : order) {
    const auto ii = static_cast<std::size_t>(i);
    std::size_t best = 0;
    for (std::size_t s = 1; s < load.size(); ++s)
      if (load[s] + est[s][ii] < load[best] + est[best][ii]) best = s;
    shards[best].push_back(i);
    load[best] += est[best][ii];
  }
  for (auto& s : shards) std::sort(s.begin(), s.end());
  return shards;
}

// Runs every shard of `shards` (from assign_shards) on the host and fills
// `rep`'s per-slot rows and totals.  `solve(spec, slot, i, tile_pool)`
// runs item i on a fresh Device of `spec` and returns its ItemCost; it
// is called from worker threads, one shard per worker, so it must touch
// only item i's own state.  If items throw, each shard stops at its
// first failure and, after the join, the exception of the LOWEST failing
// item id is rethrown — the same error at every thread count.
template <class Solve>
void run_batch(const DevicePool& pool,
               const std::vector<std::vector<int>>& shards,
               const BatchOptions& opt, Solve&& solve,
               util::BatchReport& rep) {
  const int d = pool.size();
  std::size_t n = 0;
  for (const auto& s : shards) n += s.size();
  std::vector<ItemCost> cost(n);
  std::vector<std::exception_ptr> errs(n);
  {
    const int width = opt.threads > 0 ? std::min(opt.threads, d) : d;
    std::optional<util::ThreadPool> owned_pool;
    util::ThreadPool* tile_pool = opt.tile_pool;
    if (tile_pool == nullptr) {
      const int helpers = detail::tile_pool_helpers(width, opt.parallelism);
      if (helpers > 0) {
        owned_pool.emplace(helpers);
        tile_pool = &*owned_pool;
      }
    }
    util::ThreadPool workers(width);
    for (int s = 0; s < d; ++s)
      workers.submit([&, s] {
        const auto ss = static_cast<std::size_t>(s);
        for (int i : shards[ss]) {
          const auto ii = static_cast<std::size_t>(i);
          try {
            cost[ii] = solve(*pool.slots[ss], s, i, tile_pool);
          } catch (...) {
            errs[ii] = std::current_exception();
            break;  // a failed item ends its shard
          }
        }
      });
    workers.wait();
  }
  // Deterministic error report: the lowest failing item id wins,
  // whatever the shard order or thread interleaving (util::run_tasks'
  // discipline).
  for (const std::exception_ptr& e : errs)
    if (e) std::rethrow_exception(e);

  rep.policy = name_of(opt.policy);
  rep.rows.resize(static_cast<std::size_t>(d));
  for (std::size_t s = 0; s < rep.rows.size(); ++s) {
    auto& row = rep.rows[s];
    row.device = static_cast<int>(s);
    row.name = pool.slots[s]->name;
    row.problems = shards[s];
    for (int i : row.problems) {
      const ItemCost& c = cost[static_cast<std::size_t>(i)];
      row.tally += c.tally;
      row.dp_gflop += c.dp_gflop;
      row.kernel_ms += c.kernel_ms;
      row.wall_ms += c.wall_ms;
    }
    rep.tally += row.tally;
    rep.dp_gflop_total += row.dp_gflop;
    rep.kernel_ms += row.kernel_ms;
    rep.makespan_ms = std::max(rep.makespan_ms, row.wall_ms);
  }
}

}  // namespace mdlsq::core
