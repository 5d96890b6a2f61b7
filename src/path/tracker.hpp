// The power-series predictor–corrector path tracker (DESIGN.md §7) — the
// paper's Section 1.1 application, built from the repo's own parts:
//
//   predictor — at the current parameter t0 the homotopy is recentered
//     (Jacobian Taylor blocks + rhs series, one priced launch), the
//     diagonal block is factored through the blocked QR pipeline, and the
//     block Toeplitz recursion produces the Taylor coefficients of the
//     solution path (core/block_toeplitz.hpp).  The series tail yields a
//     pole-radius estimate (series.hpp) that sets the step size
//     h = step_factor * radius, and the series is evaluated at h (one
//     priced Horner launch) to predict x(t0 + h).
//
//   corrector — Newton at t1 = t0 + h, REUSING the cached QR factors of
//     the Jacobian at t0 (the factor-reusing correction solve of
//     core/refinement.hpp) instead of refactorizing: each iteration is a
//     priced residual launch plus a priced correction solve.  The
//     acceptance test is the adaptive ladder's (DESIGN.md §4):
//     forward_estimate = cond_estimate * eta <= tol, with eta the
//     normwise backward error of the corrected point.
//
//   precision ladder — each step starts at the path's current precision
//     (at first the resolved sequence's first rung, d2 by default) and
//     escalates along that sequence (the default doubling ladder
//     d2 -> d4 -> d8, or a configured TrackOptions::rungs sequence such
//     as {2, 3, 4, 6, 8}) only when the acceptance test fails at the
//     rung's measurement floor: escalation first REFINES (residuals at
//     the higher precision on the host, corrections on the cached
//     lower-precision factors — exactly polish-style refinement), and
//     only when the factors are exhausted (stagnation, or
//     cond * eps(factors) beyond 1e-2) does the step restart with a
//     factorization at the higher precision.  The reached
//     precision persists to later steps (conditioning along a path rarely
//     relaxes), so a stiff path pays for d4 once and a benign path never
//     does.  Every rung's accept / floor / stagnation decision is the
//     adaptive driver's policy (core/ladder.hpp); a non-finite residual or
//     scale fails the step outright.
//
//   step-size control — a corrector that stagnates ABOVE the precision
//     floor means the step outran the frozen-Jacobian contraction (or the
//     pole-radius estimate): the step halves h and re-predicts, bounded
//     by min_step.
//
// Every stage runs through Device::launch / launch_tiled with an
// exactly-declared tally, so functional and dry-run modes walk identical
// schedules (track_step_dry prices one step from recorded iteration
// counts; track_dry prices the expected whole-path schedule for the LPT
// sharding policy of batched_tracker.hpp).  Real scalars only, like the
// adaptive ladder.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "blas/condition.hpp"
#include "blas/gemm.hpp"
#include "core/adaptive_lsq.hpp"
#include "core/block_toeplitz.hpp"
#include "core/ladder.hpp"
#include "core/solve_options.hpp"
#include "device/device_spec.hpp"
#include "device/launch.hpp"
#include "obs/trace.hpp"
#include "path/homotopy.hpp"
#include "path/series.hpp"
#include "util/batch_report.hpp"
#include "util/thread_pool.hpp"

namespace mdlsq::path {

namespace stage {
inline constexpr const char* recenter = "recenter";
inline constexpr const char* predict = "predict eval";
inline constexpr const char* eval_ab = "eval A,b";
inline constexpr const char* residual = "track residual";
}  // namespace stage

// Inherits the shared execution knobs (parallelism, tile_pool, rungs)
// from core::ExecOptions; `rungs` is the per-step ladder's one knob — its
// first rung starts the path and its last caps every step (validation
// semantics are core::resolve_rungs').
struct TrackOptions : core::ExecOptions {
  double t_start = 0.0;
  double t_end = 1.0;
  // Per-step acceptance: cond_estimate * backward_error <= tol.
  double tol = 1e-20;
  int order = 8;              // series truncation order K (K+1 coefficients)
  int tile = 4;               // device pipeline tile (must divide the dim)
  int max_steps = 256;
};

// Step-size control: h = step_factor * pole_radius, clamped to
// [min_step, max_step]; a stagnating corrector halves h at most
// max_halvings times.
inline constexpr double step_factor = 0.25;
inline constexpr double max_step = 0.25;
inline constexpr double min_step = 1e-8;
inline constexpr int max_halvings = 8;
// Corrector budget per rung.
inline constexpr int corrector_iter_cap = 40;
// Steps, and correction rounds per step, of the dry-run pricing's
// expected schedule.
inline constexpr int dry_steps = 8;
inline constexpr int dry_corrector_rounds = 2;

// The option contract of track() for a homotopy of dimension `dim` at
// target precision `nh` limbs: a tile dividing the dimension, order >= 1,
// a nonempty interval and a rung sequence core::resolve_rungs accepts.
// Throws std::invalid_argument on a violation and returns the resolved
// rung sequence.  submit(), batched_track and track_dry call it too, so
// a malformed track is refused before any pricing.
inline std::vector<int> check_track_options(int dim, const TrackOptions& opt,
                                            int nh) {
  if (opt.tile < 1 || dim % opt.tile != 0)
    throw std::invalid_argument(
        "mdlsq: track requires a tile dividing the homotopy dimension");
  if (opt.order < 1)
    throw std::invalid_argument("mdlsq: track requires order >= 1");
  // Intervals inside the stepping loop's epsilon would "converge" in zero
  // steps with an untouched (all-zero) solution — reject them outright.
  if (!(opt.t_end > opt.t_start + 1e-12))
    throw std::invalid_argument(
        "mdlsq: track requires t_end > t_start (by more than 1e-12)");
  return core::resolve_rungs(opt.rungs, nh);
}

// One accepted (or abandoned) step of the tracker.
struct StepStats {
  double t0 = 0.0;
  double h = 0.0;  // accepted step size (0 if the step failed)
  double pole_radius = std::numeric_limits<double>::infinity();
  int halvings = 0;        // step-size halvings within this step
  int predict_evals = 0;   // predictor + A,b evaluations launched
  int residual_evals = 0;  // corrector residual launches (first rung)
  int correction_solves = 0;  // factor-reusing solves across all rungs
  bool accepted = false;
  // Precision attempts in ladder order; refactorized marks rungs that ran
  // a fresh factorization (the first rung of each restart).
  std::vector<util::RungStats> rungs;

  double kernel_ms() const noexcept {
    double t = 0;
    for (const auto& r : rungs) t += r.kernel_ms;
    return t;
  }
  double wall_ms() const noexcept {
    double t = 0;
    for (const auto& r : rungs) t += r.wall_ms;
    return t;
  }
  md::OpTally analytic() const noexcept {
    md::OpTally t;
    for (const auto& r : rungs) t += r.analytic;
    return t;
  }
  md::OpTally measured() const noexcept {
    md::OpTally t;
    for (const auto& r : rungs) t += r.measured;
    return t;
  }
  double dp_gflop() const noexcept {
    double f = 0;
    for (const auto& r : rungs) f += r.dp_gflop();
    return f;
  }
};

template <int NH>
struct TrackResult {
  blas::Vector<md::mdreal<NH>> x;  // the solution at t_reached
  std::vector<StepStats> steps;
  bool converged = false;   // reached t_end with every step accepted
  double t_reached = 0.0;
  md::Precision final_precision = md::Precision::d2;

  double kernel_ms() const noexcept {
    double t = 0;
    for (const auto& s : steps) t += s.kernel_ms();
    return t;
  }
  double wall_ms() const noexcept {
    double t = 0;
    for (const auto& s : steps) t += s.wall_ms();
    return t;
  }
  md::OpTally device_analytic() const noexcept {
    md::OpTally t;
    for (const auto& s : steps) t += s.analytic();
    return t;
  }
  md::OpTally device_measured() const noexcept {
    md::OpTally t;
    for (const auto& s : steps) t += s.measured();
    return t;
  }
  double dp_gflop() const noexcept {
    double f = 0;
    for (const auto& s : steps) f += s.dp_gflop();
    return f;
  }
  int correction_solves() const noexcept {
    int n = 0;
    for (const auto& s : steps) n += s.correction_solves;
    return n;
  }
};

namespace detail {

using core::ceil_div;
using core::operator*;  // OpTally scaling (core/tally_rules.hpp)

// --- shared launch sites (functional and dry declare identically) -----------

template <class T, class Body>
void launch_recenter(device::Device& dev, int m, int aterms, int bterms,
                     int orders, int tile, Body&& body) {
  using O = core::ops_of<T>;
  const std::int64_t esz = 8 * blas::scalar_traits<T>::doubles_per_element;
  dev.launch(stage::recenter, ceil_div(m * m, tile), tile,
             Homotopy<T>::recenter_ops(m, aterms, bterms, orders),
             (std::int64_t(aterms) * m * m + std::int64_t(orders) * m) * esz,
             O::fma() * aterms, std::forward<Body>(body));
}

template <class T, class Body>
void launch_predict(device::Device& dev, int m, int orders, int tile,
                    Body&& body) {
  using O = core::ops_of<T>;
  const std::int64_t esz = 8 * blas::scalar_traits<T>::doubles_per_element;
  dev.launch(stage::predict, ceil_div(m, tile), tile, horner_ops<T>(m, orders),
             (std::int64_t(orders) * m + m) * esz,
             (O::mul() + O::add()) * (orders > 1 ? orders - 1 : 0),
             std::forward<Body>(body));
}

template <class T, class Body>
void launch_eval_ab(device::Device& dev, int m, int aterms, int bterms,
                    int tile, Body&& body) {
  using O = core::ops_of<T>;
  const std::int64_t esz = 8 * blas::scalar_traits<T>::doubles_per_element;
  dev.launch(stage::eval_ab, ceil_div(m * m, tile), tile,
             Homotopy<T>::eval_ops(m, aterms, bterms),
             (std::int64_t(aterms) * m * m + std::int64_t(bterms) * m +
              std::int64_t(m) * m + m) *
                 esz,
             O::fma() * std::max(aterms, bterms), std::forward<Body>(body));
}

// r = b1 - A1 x, tiled over row blocks (disjoint writes, fixed reduction
// order inside each task).
template <class T, class Body>
void launch_residual(device::Device& dev, int m, int tile, Body&& body) {
  using O = core::ops_of<T>;
  const std::int64_t esz = 8 * blas::scalar_traits<T>::doubles_per_element;
  const md::OpTally ops =
      O::fma() * (std::int64_t(m) * m) + O::sub() * std::int64_t(m);
  const md::OpTally serial =
      O::fma() * ceil_div(m, tile) + O::add() * 6 + O::sub();
  dev.launch_tiled(stage::residual, m, tile, ops,
                   (std::int64_t(m) * m + 2 * std::int64_t(m)) * esz, serial,
                   blas::block_count(m, dev.parallelism()),
                   std::forward<Body>(body));
}

// --- step outcome ------------------------------------------------------------

enum class StepVerdict {
  accepted,        // step committed
  restart_higher,  // redo the whole step, factoring at restart_rung
  failed,          // step size collapsed, ladder exhausted, or non-finite
};

struct StepOutcome {
  StepVerdict verdict = StepVerdict::failed;
  int restart_rung = 0;    // valid for restart_higher
  int accepted_limbs = 0;  // precision of the accepting rung
  double h = 0.0;          // accepted step size
};

// The refinement escalation rung: residuals at precision P on the host
// (tallied as host work, DESIGN.md §4), corrections on the cached
// precision-FL factors of the step's Toeplitz solver — priced launches on
// a Device running at FL.
template <int FL, int P, int NH>
core::RungExit polish_rung(const device::DeviceSpec& spec,
                           const Homotopy<md::mdreal<NH>>& h,
                           const core::BlockToeplitzSolver<md::mdreal<FL>>& slv,
                           double t1, double cond,
                           blas::Vector<md::mdreal<NH>>& xw,
                           const TrackOptions& opt, StepStats& st,
                           util::RungStats& rs) {
  static_assert(FL <= P && P <= NH);
  using TP = md::mdreal<P>;
  using TF = md::mdreal<FL>;
  const int m = h.dim();
  const auto um = static_cast<std::size_t>(m);

  device::Device dev(spec, md::Precision(FL), device::ExecMode::functional);
  dev.set_parallelism(opt.tile_pool, opt.parallelism);
  rs.precision = md::Precision(P);
  rs.device_precision = md::Precision(FL);
  rs.cond_estimate = cond;

  // Escalation rung: refinement at P on FL factors (ladder category,
  // like the adaptive driver's rungs).
  obs::Span rung_span("rung refine", obs::Cat::ladder, P);

  core::RungExit exit = core::RungExit::stagnated;
  {
    md::ScopedTally host_scope(rs.host_ops);
    const auto hp = narrow_homotopy<P, NH>(h);
    const auto a1 = hp.a_at(t1);
    const auto b1 = hp.b_at(t1);
    const double anorm = core::detail::dnorm_inf_mat(a1);
    const double bnorm = core::detail::dnorm_inf_vec(b1);
    blas::Vector<TP> r(um);

    exit = core::refine_rung(
        opt.tol, cond, core::rung_floor(m, P), corrector_iter_cap, rs,
        [&] {
          auto xp = core::detail::narrow_vector<P, NH>(xw);
          auto ax = blas::gemv(a1, std::span<const TP>(xp));
          for (std::size_t i = 0; i < um; ++i) r[i] = b1[i] - ax[i];
          return core::ResidualNorm{
              core::detail::dnorm_inf_vec(r),
              anorm * core::detail::dnorm_inf_vec(xw) + bnorm};
        },
        [&] {
          blas::Vector<TF> rf(um);
          for (std::size_t i = 0; i < um; ++i)
            rf[i] = r[i].template to_precision<FL>();
          auto dx = slv.solve_diag_on(dev, std::span<const TF>(rf), opt.tile);
          for (std::size_t j = 0; j < um; ++j)
            xw[j] += dx[j].template to_precision<NH>();
          st.correction_solves += 1;
        });
  }
  const device::DeviceUsage u = dev.usage();
  rs.analytic = u.analytic;
  rs.measured = u.measured;
  rs.kernel_ms = u.kernel_ms;
  rs.wall_ms = u.wall_ms;
  rung_span.set_modeled_ms(rs.kernel_ms);
  return exit;
}

// The escalation ladder after the first rung: refine at each higher rung
// of the resolved sequence (which ends at or below NH) while the cached
// FL factors can still contract; a stagnating refinement restarts the
// step at the offending precision with a fresh factorization.  The
// contraction-rate gate must_refactor(cond, FL) depends only on the
// factor precision, so it is invariant across rungs: when the factors
// cannot contract, the step restarts at the first rung above them.
// Running out of rungs exhausts the ladder, and a non-finite measurement
// fails the step (failed).
template <int FL, int NH>
StepOutcome escalate_ladder(
    const device::DeviceSpec& spec, const Homotopy<md::mdreal<NH>>& h,
    const core::BlockToeplitzSolver<md::mdreal<FL>>& slv, double t1,
    double cond, double h_step, const std::vector<int>& rungs,
    blas::Vector<md::mdreal<NH>>& xw, const TrackOptions& opt, StepStats& st) {
  for (const int p : rungs) {
    if (p <= FL) continue;
    if (core::must_refactor(cond, FL))
      return {StepVerdict::restart_higher, p, 0, 0.0};
    core::RungExit exit = core::RungExit::stagnated;
    util::RungStats rs;
    core::with_limbs(p, [&](auto tag) {
      constexpr int P = decltype(tag)::limbs;
      // p lies in (FL, NH]; the guard only prunes impossible
      // instantiations.
      if constexpr (FL <= P && P <= NH)
        exit = polish_rung<FL, P, NH>(spec, h, slv, t1, cond, xw, opt, st, rs);
    });
    st.rungs.push_back(std::move(rs));
    switch (exit) {
      case core::RungExit::accepted:
        return {StepVerdict::accepted, 0, p, h_step};
      case core::RungExit::stagnated:
        return {StepVerdict::restart_higher, p, 0, 0.0};
      case core::RungExit::nonfinite:
        return {StepVerdict::failed, 0, 0, 0.0};
      case core::RungExit::floor:
        break;  // measured to this rung's floor with healthy factors: climb
    }
  }
  return {StepVerdict::failed, 0, 0, 0.0};
}

// One step attempt with the first rung at precision L: recenter, factor,
// condition estimate, series solve, step-size choice, predict, correct.
template <int L, int NH>
StepOutcome run_step_at(const device::DeviceSpec& spec,
                        const Homotopy<md::mdreal<NH>>& h, double t0,
                        const std::vector<int>& rungs,
                        blas::Vector<md::mdreal<NH>>& x_out,
                        const TrackOptions& opt, StepStats& st) {
  static_assert(L <= NH);
  using TL = md::mdreal<L>;
  const int m = h.dim();
  const auto um = static_cast<std::size_t>(m);
  const int orders = opt.order + 1;
  const int aterms = h.a_terms(), bterms = h.b_terms();

  util::RungStats rs;
  rs.precision = rs.device_precision = md::Precision(L);
  rs.refactorized = true;

  device::Device dev(spec, md::Precision(L), device::ExecMode::functional);
  dev.set_parallelism(opt.tile_pool, opt.parallelism);

  const auto hl = narrow_homotopy<L, NH>(h);

  // Recenter: Jacobian Taylor blocks + rhs series at t0.
  std::vector<blas::Matrix<TL>> blocks;
  std::vector<blas::Vector<TL>> bser;
  launch_recenter<TL>(dev, m, aterms, bterms, orders, opt.tile, [&] {
    blocks = hl.taylor_blocks(t0);
    bser = hl.rhs_series(t0, orders);
  });

  // Factor the Jacobian through the blocked pipeline; estimate kappa.
  const core::BlockToeplitzSolver<TL> solver(dev, std::move(blocks), opt.tile);
  blas::TriCondEstimate est;
  core::detail::launch_cond_est(dev, m, opt.tile, 8 * std::int64_t(L), [&] {
    est = blas::tri_condition_inf(solver.resident().rtop.view(), m);
  });
  const double cond = est.cond;
  rs.cond_estimate = cond;

  // The Taylor series of the path at t0 (predictor coefficients).
  const auto xs = solver.solve_on(dev, bser, opt.tile);

  // Step-size choice from the pole-radius estimate.
  st.pole_radius = pole_radius_estimate(xs);
  double hs = std::min(step_factor * st.pole_radius, max_step);
  hs = std::max(hs, min_step);
  hs = std::min(hs, opt.t_end - t0);

  // Corrector target state, carried at the full precision NH.
  blas::Vector<md::mdreal<NH>> xw;
  core::RungExit exit = core::RungExit::stagnated;
  double t1 = t0;

  for (;;) {
    t1 = t0 + hs;
    blas::Vector<TL> xp;
    blas::Matrix<TL> a1;
    blas::Vector<TL> b1;
    {
      // Predict x(t1) from the series.
      obs::Span predict_span("predictor", obs::Cat::step, L);
      launch_predict<TL>(dev, m, orders, opt.tile,
                         [&] { xp = horner_eval(xs, hs); });
      // A(t1), b(t1) for the corrector.
      launch_eval_ab<TL>(dev, m, aterms, bterms, opt.tile, [&] {
        a1 = hl.a_at(t1);
        b1 = hl.b_at(t1);
      });
      st.predict_evals += 1;
    }

    const double anorm = core::detail::dnorm_inf_mat(a1);
    const double bnorm = core::detail::dnorm_inf_vec(b1);

    xw.assign(um, md::mdreal<NH>{});
    for (std::size_t j = 0; j < um; ++j)
      xw[j] = xp[j].template to_precision<NH>();

    // Newton corrector on the t0 factors.
    obs::Span correct_span("corrector", obs::Cat::step, L);
    blas::Vector<TL> r(um);
    exit = core::refine_rung(
        opt.tol, cond, core::rung_floor(m, L), corrector_iter_cap, rs,
        [&] {
          auto xq = core::detail::narrow_vector<L, NH>(xw);
          launch_residual<TL>(dev, m, opt.tile, [&](int task) {
            const auto blk = blas::block_range(m, dev.parallelism(), task);
            for (int i = blk.begin; i < blk.end; ++i) {
              TL s{};
              for (int c = 0; c < m; ++c)
                s += a1(i, c) * xq[static_cast<std::size_t>(c)];
              r[static_cast<std::size_t>(i)] =
                  b1[static_cast<std::size_t>(i)] - s;
            }
          });
          st.residual_evals += 1;
          return core::ResidualNorm{
              core::detail::dnorm_inf_vec(r),
              anorm * core::detail::dnorm_inf_vec(xw) + bnorm};
        },
        [&] {
          auto dx = solver.solve_diag_on(dev, std::span<const TL>(r), opt.tile);
          {
            md::ScopedTally host_scope(rs.host_ops);
            for (std::size_t j = 0; j < um; ++j)
              xw[j] += dx[j].template to_precision<NH>();
          }
          st.correction_solves += 1;
        });

    if (exit != core::RungExit::stagnated) break;
    // The step outran the frozen-Jacobian contraction: halve and retry.
    if (st.halvings >= max_halvings || hs * 0.5 < min_step) break;
    if (obs::current_session() != nullptr) {
      const std::int64_t hn = obs::now_ns();  // instant event: the halving
      obs::emit_span("halve step", obs::Cat::step, hn, hn, L);
    }
    st.halvings += 1;
    hs *= 0.5;
  }

  const device::DeviceUsage u = dev.usage();
  rs.analytic = u.analytic;
  rs.measured = u.measured;
  rs.kernel_ms = u.kernel_ms;
  rs.wall_ms = u.wall_ms;
  st.rungs.push_back(std::move(rs));

  switch (exit) {
    case core::RungExit::accepted:
      x_out = std::move(xw);
      return {StepVerdict::accepted, 0, L, hs};
    case core::RungExit::floor: {
      // Precision-limited: climb the ladder on the cached factors.
      StepOutcome out = escalate_ladder<L, NH>(spec, h, solver, t1, cond, hs,
                                               rungs, xw, opt, st);
      if (out.verdict == StepVerdict::accepted) x_out = std::move(xw);
      return out;
    }
    case core::RungExit::stagnated:
    case core::RungExit::nonfinite:
      break;
  }
  return {StepVerdict::failed, 0, 0, 0.0};
}

}  // namespace detail

// The tracker driver.  The homotopy lives at the target precision NH; the
// per-step ladder starts at the resolved sequence's first rung (or the
// precision an earlier step escalated to) and never exceeds its last.
template <int NH>
TrackResult<NH> track(const device::DeviceSpec& spec,
                      const Homotopy<md::mdreal<NH>>& h,
                      const TrackOptions& opt = {}) {
  static_assert(NH >= 1, "mdreal needs at least one limb");
  const std::vector<int> rungs = check_track_options(h.dim(), opt, NH);

  // A standalone call with parallelism but no shared pool owns one for
  // the track's duration (batched_tracker hands in its shared pool).
  TrackOptions topt = opt;
  std::optional<util::ThreadPool> owned_pool;
  if (topt.parallelism > 1 && topt.tile_pool == nullptr) {
    owned_pool.emplace(topt.parallelism - 1);
    topt.tile_pool = &*owned_pool;
  }

  TrackResult<NH> out;
  out.x.assign(static_cast<std::size_t>(h.dim()), md::mdreal<NH>{});
  double t = topt.t_start;
  int cur = rungs.front();
  bool ok = true;

  while (ok && t < topt.t_end - 1e-14 &&
         static_cast<int>(out.steps.size()) < topt.max_steps) {
    StepStats st;
    st.t0 = t;
    // Parent span over the whole step (every attempt and escalation);
    // closed at the end of this loop iteration.
    obs::Span step_span("track step", obs::Cat::step, cur);
    detail::StepOutcome outcome;
    for (;;) {
      core::detail::with_limbs(cur, [&](auto tag) {
        constexpr int L = decltype(tag)::limbs;
        if constexpr (L <= NH) {
          outcome = detail::run_step_at<L, NH>(spec, h, t, rungs, out.x,
                                               topt, st);
        }
      });
      // A restart rung comes from the resolved sequence, so it never
      // exceeds the last rung.
      if (outcome.verdict == detail::StepVerdict::restart_higher &&
          outcome.restart_rung > cur) {
        cur = outcome.restart_rung;
        continue;  // redo the step, factoring at the escalated precision
      }
      break;
    }
    if (outcome.verdict == detail::StepVerdict::accepted) {
      st.accepted = true;
      st.h = outcome.h;
      t += outcome.h;
      cur = std::max(cur, outcome.accepted_limbs);
    } else {
      ok = false;
    }
    step_span.set_limbs(cur);
    step_span.set_modeled_ms(st.kernel_ms());
    out.steps.push_back(std::move(st));
  }

  out.t_reached = t;
  out.converged = ok && t >= topt.t_end - 1e-12;
  out.final_precision = md::Precision(cur);
  return out;
}

// --- dry-run pricing ---------------------------------------------------------

// Prices the launch schedule of one single-rung tracking step from its
// iteration counts: recenter, factor + condition estimate, series solve,
// then per predictor evaluation one predict + one A,b launch, and the
// corrector's residual launches and correction solves.  A functional step
// that stayed on its first rung walks exactly this schedule (pinned by
// tests/test_path_tracker.cpp).
template <class T>
void track_step_dry(device::Device& dev, int m, int aterms, int bterms,
                    int order, int tile, int predict_evals,
                    int residual_evals, int correction_solves) {
  const int orders = order + 1;
  detail::launch_recenter<T>(dev, m, aterms, bterms, orders, tile, [] {});
  core::BlockToeplitzSolver<T>::factor_dry(dev, m, tile);
  core::detail::launch_cond_est(
      dev, m, tile, 8 * std::int64_t(blas::scalar_traits<T>::limbs), [] {});
  core::BlockToeplitzSolver<T>::solve_series_dry(dev, m, aterms, orders, tile);
  for (int e = 0; e < predict_evals; ++e) {
    detail::launch_predict<T>(dev, m, orders, tile, [] {});
    detail::launch_eval_ab<T>(dev, m, aterms, bterms, tile, [] {});
  }
  for (int i = 0; i < residual_evals; ++i)
    detail::launch_residual<T>(dev, m, tile, [](int) {});
  for (int s = 0; s < correction_solves; ++s)
    core::correction_solve_dry<T>(dev, m, m, tile);
}

// Expected-schedule price of a whole path at target precision NH for the
// sharding policies and service admission: dry_steps steps at the first
// rung of the resolved sequence (the precision track() starts at), each
// with one predictor evaluation and dry_corrector_rounds correction
// rounds.  Escalations and halvings are data-dependent, so this is a
// model, not a replay — the same contract as adaptive_least_squares_dry
// (DESIGN.md §4).  The options are held to track()'s contract
// (check_track_options), so a malformed track is never priced.
struct TrackDryResult {
  md::Precision precision = md::Precision::d2;
  md::OpTally analytic;
  std::int64_t launches = 0;
  double kernel_ms = 0.0;
  double wall_ms = 0.0;
};

template <int NH>
TrackDryResult track_dry(const device::DeviceSpec& spec, int m, int aterms,
                         int bterms, const TrackOptions& opt = {}) {
  const int first = check_track_options(m, opt, NH).front();
  TrackDryResult out;
  core::detail::with_limbs(first, [&](auto tag) {
    using TL = decltype(tag);
    device::Device dev(spec, md::Precision(TL::limbs),
                       device::ExecMode::dry_run);
    for (int s = 0; s < dry_steps; ++s)
      track_step_dry<TL>(dev, m, aterms, bterms, opt.order, opt.tile, 1,
                         dry_corrector_rounds + 1, dry_corrector_rounds);
    out.precision = md::Precision(TL::limbs);
    out.analytic = dev.analytic_total();
    out.launches = dev.launches();
    out.kernel_ms = dev.kernel_ms();
    out.wall_ms = dev.wall_ms();
  });
  return out;
}

// Device-priced Taylor coefficients of the path at t0 — the recenter /
// factor / series-solve front of one tracking step, exposed for the
// order-by-order error measurements of examples/path_tracking.cpp.
template <class T>
std::vector<blas::Vector<T>> taylor_series(device::Device& dev,
                                           const Homotopy<T>& h, double t0,
                                           int order, int tile) {
  const int m = h.dim();
  const int orders = order + 1;
  std::vector<blas::Matrix<T>> blocks;
  std::vector<blas::Vector<T>> bser;
  detail::launch_recenter<T>(dev, m, h.a_terms(), h.b_terms(), orders, tile,
                             [&] {
                               blocks = h.taylor_blocks(t0);
                               bser = h.rhs_series(t0, orders);
                             });
  core::BlockToeplitzSolver<T> solver(dev, std::move(blocks), tile);
  return solver.solve_on(dev, bser, tile);
}

}  // namespace mdlsq::path
