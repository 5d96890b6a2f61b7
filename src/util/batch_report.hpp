// The aggregate report of one batched least-squares run: per-device rows
// (problems served, multiple-double operations, modeled kernel and wall
// times) plus batch totals, printed in the paper's table style.  Batches
// run under the adaptive precision ladder additionally carry per-rung
// escalation statistics (one row per ladder rung: problems that entered
// the rung, refactorizations, refinement iterations, acceptance counts).
//
// The types are scalar-agnostic plain data so the bench harness and the
// service layers can log them without instantiating the solver templates.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "md/op_counts.hpp"
#include "obs/export.hpp"
#include "util/table.hpp"

namespace mdlsq::util {

// Per-rung statistics of one adaptive precision-ladder solve (filled by
// core::adaptive_lsq).  `precision` is the rung's target — the precision
// residuals and the acceptance test are evaluated at; `device_precision`
// is the precision the rung's kernel launches were priced at (the factor
// precision, which lags behind on refinement-only rungs).  Tallies from
// rungs at different precisions must not be CONVERTED under one Table 1
// row (raw operation counts may be summed), so dp-flop conversion happens
// here, per rung, before any aggregation.
struct RungStats {
  md::Precision precision = md::Precision::d2;
  md::Precision device_precision = md::Precision::d2;
  bool refactorized = false;   // this rung ran a fresh factorization
  bool accepted = false;       // the acceptance test passed at this rung
  int refine_iterations = 0;
  double cond_estimate = 0.0;  // triangular estimate from the live factors
  double backward_error = 0.0; // normwise relative gradient after the rung
  double forward_estimate = 0.0;  // cond_estimate * backward_error
  md::OpTally analytic;        // declared ops of the rung's launches
  md::OpTally measured;        // counted from the functional bodies
  md::OpTally host_ops;        // residual/acceptance work on the host
  double kernel_ms = 0.0;
  double wall_ms = 0.0;

  double dp_gflop() const noexcept {
    return analytic.dp_flops(device_precision) * 1e-9;
  }
};

struct BatchDeviceRow {
  int device = -1;             // index within the pool
  std::string name;            // DeviceSpec name
  std::vector<int> problems;   // problem ids served, ascending
  md::OpTally tally;           // summed analytic tallies of the shard
  double dp_gflop = 0.0;       // converted per problem at its true rungs
  double kernel_ms = 0.0;      // summed modeled kernel time
  double wall_ms = 0.0;        // summed modeled wall time of the shard
};

// One ladder rung aggregated across the batch (adaptive pipeline only).
// `tally` sums raw multiple-double operation COUNTS, which are precision-
// agnostic and safe to merge even when problems reached this rung at
// different device precisions (refine vs refactor); `dp_gflop` is the
// precision-priced quantity and is therefore converted per problem-rung
// BEFORE summation — never from the merged tally.
struct BatchRungRow {
  md::Precision precision = md::Precision::d2;
  int problems = 0;            // problems whose ladder entered this rung
  int refactorizations = 0;
  int accepted = 0;
  std::int64_t refine_iterations = 0;
  md::OpTally tally;           // summed op counts of these rungs
  double dp_gflop = 0.0;       // summed per-rung conversions
  double kernel_ms = 0.0;
};

// One tracked path of a batched path-tracking run (path/batched_tracker):
// steps taken, factor-reusing correction solves spent, the precision the
// per-step ladder reached, and the path's exact device tally.
struct BatchPathRow {
  int path = -1;
  int device = -1;             // pool slot the path was served by
  int steps = 0;
  int correction_solves = 0;
  md::Precision final_precision = md::Precision::d2;
  bool converged = false;
  md::OpTally tally;           // summed analytic tallies of the path
  double kernel_ms = 0.0;
};

struct BatchReport {
  md::Precision precision = md::Precision::d2;  // the batch's target type
  std::string policy;                 // sharding policy name
  std::string pipeline;               // per-problem pipeline name
  std::vector<BatchDeviceRow> rows;   // one per pool device, in pool order
  std::vector<BatchRungRow> rungs;    // escalation stats; empty for direct
  std::vector<BatchPathRow> paths;    // per-path rows; tracker batches only
  md::OpTally tally;                  // batch aggregate (== sum of rows)
  double dp_gflop_total = 0.0;        // summed per-device dp_gflop
  double kernel_ms = 0.0;             // summed over devices
  // Modeled batch makespan: devices run concurrently, so the batch
  // finishes with its slowest shard.
  double makespan_ms = 0.0;

  int problem_count() const noexcept {
    int n = 0;
    for (const auto& r : rows) n += static_cast<int>(r.problems.size());
    return n;
  }

  // Folds one streamed per-job device row into the aggregate: the row
  // accumulates into the matching pool-slot row (created on first use),
  // the batch totals, and the modeled makespan (devices run concurrently,
  // so the aggregate finishes with its slowest slot).  The serve layer
  // streams rows through here as jobs complete; each problem id is
  // inserted at its sorted position, so the slot's list stays ascending
  // whatever the completion order.  Validation throws
  // std::invalid_argument and survives NDEBUG — a negative slot index or
  // negative times would corrupt the aggregate silently in release
  // builds, where every service runs.
  void absorb(const BatchDeviceRow& r) {
    if (r.device < 0)
      throw std::invalid_argument(
          "mdlsq: BatchReport::absorb needs a pool-slot index >= 0");
    if (r.kernel_ms < 0 || r.wall_ms < 0 || r.dp_gflop < 0)
      throw std::invalid_argument(
          "mdlsq: BatchReport::absorb needs nonnegative times and flops");
    if (static_cast<std::size_t>(r.device) >= rows.size())
      rows.resize(static_cast<std::size_t>(r.device) + 1);
    auto& row = rows[static_cast<std::size_t>(r.device)];
    row.device = r.device;
    if (row.name.empty()) row.name = r.name;
    for (const int id : r.problems)
      row.problems.insert(
          std::lower_bound(row.problems.begin(), row.problems.end(), id), id);
    row.tally += r.tally;
    row.dp_gflop += r.dp_gflop;
    row.kernel_ms += r.kernel_ms;
    row.wall_ms += r.wall_ms;
    tally += r.tally;
    dp_gflop_total += r.dp_gflop;
    kernel_ms += r.kernel_ms;
    if (row.wall_ms > makespan_ms) makespan_ms = row.wall_ms;
  }

  // Inserts one streamed path row at its position by path id, so the
  // rows stay ordered whatever the completion order.
  void absorb_path(const BatchPathRow& r) {
    paths.insert(std::lower_bound(paths.begin(), paths.end(), r.path,
                                  [](const BatchPathRow& p, int id) {
                                    return p.path < id;
                                  }),
                 r);
  }

  // Folds one adaptive-ladder rung into the per-rung escalation rows,
  // matched by target precision; a new row is inserted at its position
  // by precision, so the rows stay in ladder order whatever the
  // completion order.  Raw op COUNTS are merged; dp_gflop is converted
  // per rung BEFORE this call — see the BatchRungRow comment.
  void absorb_rung(const RungStats& s) {
    auto it = std::lower_bound(rungs.begin(), rungs.end(), s.precision,
                               [](const BatchRungRow& r, md::Precision p) {
                                 return r.precision < p;
                               });
    if (it == rungs.end() || it->precision != s.precision) {
      it = rungs.insert(it, BatchRungRow{});
      it->precision = s.precision;
    }
    ++it->problems;
    if (s.refactorized) ++it->refactorizations;
    if (s.accepted) ++it->accepted;
    it->refine_iterations += s.refine_iterations;
    it->tally += s.analytic;
    it->dp_gflop += s.dp_gflop();
    it->kernel_ms += s.kernel_ms;
  }

  double dp_gflop() const noexcept { return dp_gflop_total; }

  void print(std::FILE* out = stdout) const {
    std::fprintf(out, "batched least squares: %d problems on %zu devices, "
                      "policy %s%s%s, precision %s\n",
                 problem_count(), rows.size(), policy.c_str(),
                 pipeline.empty() ? "" : ", pipeline ",
                 pipeline.c_str(), md::name_of(precision));
    Table t({"device", "spec", "problems", "md ops", "dp Gflop",
             "kernel ms", "wall ms"});
    for (const auto& r : rows) {
      std::string ids;
      for (std::size_t i = 0; i < r.problems.size(); ++i)
        ids += (i ? "," : "") + std::to_string(r.problems[i]);
      t.add_row({std::to_string(r.device), r.name,
                 ids.empty() ? "-" : ids, std::to_string(r.tally.md_ops()),
                 fmt2(r.dp_gflop), fmt2(r.kernel_ms), fmt2(r.wall_ms)});
    }
    t.add_row({"all", "-", std::to_string(problem_count()),
               std::to_string(tally.md_ops()), fmt2(dp_gflop_total),
               fmt2(kernel_ms), fmt2(makespan_ms)});
    t.print(out);

    if (!rungs.empty()) {
      std::fprintf(out, "precision-ladder escalation:\n");
      Table e({"rung", "problems", "refactor", "accepted", "refine iters",
               "md ops", "dp Gflop", "kernel ms"});
      for (const auto& r : rungs)
        e.add_row({md::name_of(r.precision), std::to_string(r.problems),
                   std::to_string(r.refactorizations),
                   std::to_string(r.accepted),
                   std::to_string(r.refine_iterations),
                   std::to_string(r.tally.md_ops()), fmt2(r.dp_gflop),
                   fmt2(r.kernel_ms)});
      e.print(out);
    }

    if (!paths.empty()) {
      std::fprintf(out, "tracked paths:\n");
      Table p({"path", "device", "steps", "corrections", "precision",
               "converged", "md ops", "kernel ms"});
      for (const auto& r : paths)
        p.add_row({std::to_string(r.path), std::to_string(r.device),
                   std::to_string(r.steps),
                   std::to_string(r.correction_solves),
                   md::name_of(r.final_precision), r.converged ? "yes" : "NO",
                   std::to_string(r.tally.md_ops()), fmt2(r.kernel_ms)});
      p.print(out);
    }
  }

  // Machine-readable twin of print(): the same per-device / per-rung /
  // per-path rows as one JSON object, for the bench artifacts and any
  // driver that wants to post-process a run (tools/trace_summarize.py
  // consumes the Chrome trace; this carries the schedule accounting).
  void write_json(std::FILE* out) const {
    using obs::json_escape;
    std::fprintf(out,
                 "{\n\"precision\": \"%s\", \"policy\": \"%s\", "
                 "\"pipeline\": \"%s\", \"problems\": %d,\n",
                 md::name_of(precision), json_escape(policy).c_str(),
                 json_escape(pipeline).c_str(), problem_count());
    std::fprintf(out,
                 "\"totals\": {\"md_ops\": %lld, \"dp_gflop\": %.6f, "
                 "\"kernel_ms\": %.6f, \"makespan_ms\": %.6f},\n",
                 static_cast<long long>(tally.md_ops()), dp_gflop_total,
                 kernel_ms, makespan_ms);
    std::fprintf(out, "\"devices\": [");
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const auto& r = rows[i];
      std::fprintf(out,
                   "%s\n  {\"device\": %d, \"name\": \"%s\", \"problems\": [",
                   i ? "," : "", r.device, json_escape(r.name).c_str());
      for (std::size_t p = 0; p < r.problems.size(); ++p)
        std::fprintf(out, "%s%d", p ? ", " : "", r.problems[p]);
      std::fprintf(out,
                   "], \"md_ops\": %lld, \"dp_gflop\": %.6f, "
                   "\"kernel_ms\": %.6f, \"wall_ms\": %.6f}",
                   static_cast<long long>(r.tally.md_ops()), r.dp_gflop,
                   r.kernel_ms, r.wall_ms);
    }
    std::fprintf(out, "\n],\n\"rungs\": [");
    for (std::size_t i = 0; i < rungs.size(); ++i) {
      const auto& r = rungs[i];
      std::fprintf(out,
                   "%s\n  {\"precision\": \"%s\", \"problems\": %d, "
                   "\"refactorizations\": %d, \"accepted\": %d, "
                   "\"refine_iterations\": %lld, \"md_ops\": %lld, "
                   "\"dp_gflop\": %.6f, \"kernel_ms\": %.6f}",
                   i ? "," : "", md::name_of(r.precision), r.problems,
                   r.refactorizations, r.accepted,
                   static_cast<long long>(r.refine_iterations),
                   static_cast<long long>(r.tally.md_ops()), r.dp_gflop,
                   r.kernel_ms);
    }
    std::fprintf(out, "\n],\n\"paths\": [");
    for (std::size_t i = 0; i < paths.size(); ++i) {
      const auto& r = paths[i];
      std::fprintf(out,
                   "%s\n  {\"path\": %d, \"device\": %d, \"steps\": %d, "
                   "\"correction_solves\": %d, \"final_precision\": \"%s\", "
                   "\"converged\": %s, \"md_ops\": %lld, \"kernel_ms\": %.6f}",
                   i ? "," : "", r.path, r.device, r.steps,
                   r.correction_solves, md::name_of(r.final_precision),
                   r.converged ? "true" : "false",
                   static_cast<long long>(r.tally.md_ops()), r.kernel_ms);
    }
    std::fprintf(out, "\n]\n}\n");
  }
};

}  // namespace mdlsq::util
