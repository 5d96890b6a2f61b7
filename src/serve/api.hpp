// The public request API of the solver service (DESIGN.md §11): ONE
// Request/Response pair covers every job the library can serve — a
// fixed-precision least-squares solve, an adaptive precision-ladder
// solve, or a homotopy path track — as a variant payload, instead of
// three parallel entry points.  Submission is asynchronous: submit()
// assigns a stable, monotonically increasing job id to EVERY request
// (accepted or rejected) and returns a future for the Response, so a
// client can interleave submissions and collect results in any order.
// Rejected submissions (admission control, service.hpp) resolve their
// future immediately with JobStatus::rejected and a human-readable
// reason; malformed requests (shape mismatches, tile not dividing the
// column count, track options track() would refuse) throw
// std::invalid_argument from submit() itself, per the repo-wide
// validation convention — capacity is a Response, misuse is an
// exception.
//
// Every completed Response carries the job's exact device accounting —
// the declared analytic tally, the functionally measured tally (equal by
// the repo's core invariant), modeled kernel/wall times, and the job's
// util::BatchDeviceRow, which the service also streams to an optional
// row sink as jobs finish and folds into its aggregate BatchReport.
#pragma once

#include <cstdint>
#include <future>
#include <string>
#include <variant>
#include <vector>

#include "blas/matrix.hpp"
#include "core/adaptive_lsq.hpp"
#include "md/op_counts.hpp"
#include "path/homotopy.hpp"
#include "path/tracker.hpp"
#include "util/batch_report.hpp"

namespace mdlsq::serve {

// Fixed-precision least squares min_x ||b - A x||_2 at NH limbs — the
// only job kind the factor cache serves: repeat submissions of the same
// matrix skip staging and factorization (service.hpp).
template <int NH>
struct LsqJob {
  blas::Matrix<md::mdreal<NH>> a;
  blas::Vector<md::mdreal<NH>> b;
  int tile = 8;  // device pipeline tile; must divide a.cols()
};

// Adaptive precision-ladder least squares (core/adaptive_lsq.hpp).  Runs
// uncached: the ladder's factor precision is data-dependent, so a cached
// top-precision factor would not replay the cold schedule.
template <int NH>
struct AdaptiveLsqJob {
  blas::Matrix<md::mdreal<NH>> a;
  blas::Vector<md::mdreal<NH>> b;
  core::AdaptiveOptions opt;
};

// Homotopy path track (path/tracker.hpp).
template <int NH>
struct TrackJob {
  path::Homotopy<md::mdreal<NH>> h;
  path::TrackOptions opt;
};

template <int NH>
using JobPayload = std::variant<LsqJob<NH>, AdaptiveLsqJob<NH>, TrackJob<NH>>;

template <int NH>
struct Request {
  std::string tenant = "default";  // fair-share accounting bucket
  JobPayload<NH> job;
};

enum class JobStatus { done, rejected };

inline const char* name_of(JobStatus s) noexcept {
  switch (s) {
    case JobStatus::done: return "done";
    case JobStatus::rejected: return "rejected";
  }
  return "?";
}

template <int NH>
struct Response {
  std::uint64_t id = 0;        // stable job id, assigned at submission
  std::string tenant;
  JobStatus status = JobStatus::done;
  std::string reject_reason;   // set when status == rejected
  double modeled_cost_ms = 0;  // admission price (dry-run modeled wall)
  bool cache_hit = false;      // served from resident cached factors

  // Solution state: the least-squares solution, or the tracked path's
  // endpoint.  Empty on rejection.
  blas::Vector<md::mdreal<NH>> x;
  bool converged = true;
  md::Precision final_precision{NH};
  int steps = 0;               // track jobs: accepted predictor steps
  int correction_solves = 0;   // track jobs: factor-reusing corrections

  // Exact device accounting of this job (measured == analytic is the
  // repo's core invariant and holds on the warm path too).
  md::OpTally analytic;
  md::OpTally measured;
  double kernel_ms = 0;
  double wall_ms = 0;

  // The job's report row (also streamed to ServiceOptions::row_sink and
  // folded into the service's aggregate report), plus the adaptive
  // ladder's per-rung stats when the job climbed one.
  util::BatchDeviceRow row;
  std::vector<util::RungStats> rungs;
};

// What submit() hands back: the assigned id, the admission verdict, and
// a future for the Response (already resolved when rejected).
template <int NH>
struct SubmitTicket {
  std::uint64_t id = 0;
  bool accepted = false;
  std::string reject_reason;  // empty when accepted
  std::future<Response<NH>> result;
};

}  // namespace mdlsq::serve
