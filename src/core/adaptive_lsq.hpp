// Adaptive precision-ladder least squares.
//
// The paper's Table 1 makes precision a priced commodity: every doubling
// of the limb count buys ~30 digits at a known operation-count overhead.
// This driver spends that budget automatically: it solves
// min_x ||b - A x||_2 to a user-requested (estimated forward-error)
// tolerance by climbing a precision ladder — the default doubling
// sequence d2 -> d4 -> d8, or any configured rung sequence over the
// instantiated limb counts (core/limb_dispatch.hpp), e.g.
// {2, 3, 4, 6, 8} — escalating only when an acceptance test fails.
//
// Per rung at precision p (DESIGN.md section 4; the accept / floor /
// stagnation decisions are core/ladder.hpp's policy):
//   1. Factors.  If no QR factors exist yet, the previous rung's factors
//      stagnated, or the refinement contraction rate
//      cond_estimate * eps(factor precision) exceeds 1e-2
//      (must_refactor), the rung REFACTORIZES: the resident device
//      pipeline (blocked QR + Q^H b + tiled back substitution,
//      least_squares_resident_run) runs at precision p, its factors stay
//      resident as a ResidentQr, and a triangular condition estimate
//      (blas/condition.hpp) is launched against the resident R triangle.
//      Only x returns to the host.  Otherwise the rung REFINES:
//      the existing lower-precision factors are reused and escalation
//      costs refinement iterations, not a refactorization.
//   2. Polish.  Iterative refinement with residuals at the rung precision
//      p and correction solves on the factors, held resident (ResidentQr,
//      device-priced launches, refinement.hpp): eta =
//      ||A^H (b - A x)||_inf / scale is driven down
//      until the acceptance test passes, the rung's measurement floor
//      (~eps(p)) is reached (escalate; factors still healthy), or eta
//      stops contracting (factors exhausted; next rung refactorizes).
//   3. Acceptance.  forward_estimate = cond_estimate * eta <= tol accepts
//      the rung and ends the ladder.  A non-finite residual or scale (NaN
//      or Inf in A, b or the iterate) also ends it, unconverged.
//
// Every rung runs against its own Device (at the factor precision, which
// is the precision of the launches it issues), so modeled times and exact
// per-rung tallies fall out of the standard machinery, and
// batched_lsq.hpp can serve adaptive problems with per-problem isolation.
// adaptive_least_squares_dry prices the expected schedule (factorization
// at the starting rung, a fixed number of refinement sweeps per later
// rung) for the sharding policies' timing model.
#pragma once

#include <cmath>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <variant>
#include <vector>

#include "blas/condition.hpp"
#include "blas/gemm.hpp"
#include "blas/norms.hpp"
#include "core/ladder.hpp"
#include "core/least_squares.hpp"
#include "core/limb_dispatch.hpp"
#include "core/refinement.hpp"
#include "core/solve_options.hpp"
#include "device/device_spec.hpp"
#include "device/launch.hpp"
#include "obs/trace.hpp"
#include "util/batch_report.hpp"

namespace mdlsq::core {

namespace stage {
inline constexpr const char* cond_est = "cond est";
}

// Inherits the shared execution knobs (parallelism, tile_pool, rungs)
// from core::ExecOptions; `rungs` is the one ladder knob — its first rung
// starts the ladder and its last caps it.  A finer sequence like
// {2, 3, 4, 6, 8} lets an escalation buy one limb at a time instead of
// doubling the cost (see core::resolve_rungs for validation semantics).
struct AdaptiveOptions : ExecOptions {
  double tol = 1e-25;  // requested tolerance on the estimated forward error
  int tile = 8;        // tile size of the device pipeline (divides cols)
};

// Refinement budget per rung.
inline constexpr int refine_iter_cap = 12;
// Refinement sweeps per post-start rung assumed by the dry-run pricing.
inline constexpr int dry_refine_sweeps = 2;

template <int NH>
struct AdaptiveLsqResult {
  blas::Vector<md::mdreal<NH>> x;
  std::vector<util::RungStats> rungs;  // in ladder order
  bool converged = false;              // some rung accepted
  md::Precision final_precision = md::Precision::d2;  // last rung reached

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
  double dp_gflop() const noexcept {
    double f = 0;
    for (const auto& r : rungs) f += r.dp_gflop();
    return f;
  }
  md::OpTally device_analytic() const noexcept {
    md::OpTally t;
    for (const auto& r : rungs) t += r.analytic;
    return t;
  }
  md::OpTally device_measured() const noexcept {
    md::OpTally t;
    for (const auto& r : rungs) t += r.measured;
    return t;
  }
};

namespace detail {

// Plain-double norms for the backward-error scale (estimates need no
// multiple-double arithmetic, and none is tallied).  A NaN entry makes the
// norm NaN (std::max would skip it), so the ladder sees non-finite input
// instead of a norm of the finite entries.
inline double nan_max(double m, double v) noexcept {
  return (v > m || v != v) ? v : m;
}
template <class T>
double dnorm_inf_mat(const blas::Matrix<T>& a) noexcept {
  double m = 0;
  for (int i = 0; i < a.rows(); ++i) {
    double s = 0;
    for (int j = 0; j < a.cols(); ++j) s += std::fabs(a(i, j).to_double());
    m = nan_max(m, s);
  }
  return m;
}
template <class T>
double dnorm_one_mat(const blas::Matrix<T>& a) noexcept {
  double m = 0;
  for (int j = 0; j < a.cols(); ++j) {
    double s = 0;
    for (int i = 0; i < a.rows(); ++i) s += std::fabs(a(i, j).to_double());
    m = nan_max(m, s);
  }
  return m;
}
template <class T>
double dnorm_inf_vec(const blas::Vector<T>& v) noexcept {
  double m = 0;
  for (const T& x : v) m = nan_max(m, std::fabs(x.to_double()));
  return m;
}

template <int P, int NH>
blas::Matrix<md::mdreal<P>> narrow_matrix(
    const blas::Matrix<md::mdreal<NH>>& a) {
  blas::Matrix<md::mdreal<P>> r(a.rows(), a.cols());
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < a.cols(); ++j)
      r(i, j) = a(i, j).template to_precision<P>();
  return r;
}
template <int P, int NH>
blas::Vector<md::mdreal<P>> narrow_vector(
    const blas::Vector<md::mdreal<NH>>& v) {
  blas::Vector<md::mdreal<P>> r(v.size());
  for (std::size_t i = 0; i < v.size(); ++i)
    r[i] = v[i].template to_precision<P>();
  return r;
}

// The condition-estimator launch: fixed-count host arithmetic on the R
// factor, declared exactly (blas::tri_condition_ops).
template <class Body>
void launch_cond_est(device::Device& dev, int n, int tile, std::int64_t esz,
                     Body&& body) {
  const std::int64_t n64 = n;
  const md::OpTally serial{.add = 2 * n64, .sub = 2 * n64, .mul = 2 * n64,
                           .div = 2 * n64};
  dev.launch(stage::cond_est, 1, tile, blas::tri_condition_ops(n),
             (n64 * n64 / 2 + 2 * n64) * esz, serial,
             std::forward<Body>(body));
}

// The ladder's live factors at L limbs, held resident for the priced
// correction solves.
template <int L>
using LadderFactors = ResidentQr<md::mdreal<L>>;

// Mutable ladder state: the accumulated solution at the target precision
// and the live factors at whichever precision last factorized.
template <int NH>
struct AdaptiveState {
  blas::Vector<md::mdreal<NH>> x;
  // Live factors at whichever instantiated precision last factorized —
  // one variant over the whole instantiation list instead of a hand-kept
  // optional per hard-wired count (monostate: no factors yet).
  limb_variant_t<LadderFactors> factors;
  int factor_limbs = 0;  // 0: no factors yet
  bool factors_stagnated = false;
  double cond_est = std::numeric_limits<double>::infinity();
  // Precision-independent scale parts of the backward error
  // eta = ||A^H (b - A x)||_inf / (||A||_1 (||A||_inf ||x||_inf + ||b||_inf)).
  double anorm_one = 0, anorm_inf = 0, bnorm_inf = 0;

  template <int L>
  const LadderFactors<L>& slot() const {
    return std::get<LadderFactors<L>>(factors);
  }
  template <int L>
  void set_factors(LadderFactors<L>&& f) {
    factors.template emplace<LadderFactors<L>>(std::move(f));
    factor_limbs = L;
    factors_stagnated = false;
  }
};

// The polish loop of one rung: refinement with residuals at the rung
// precision P against factors at precision FL (<= P), corrections priced
// on `dev` (which runs at precision FL).  Host-side residual and update
// arithmetic is tallied into rs.host_ops; the launch bodies divert to the
// device's stage tallies (inner ScopedTally scopes shadow outer ones).
template <int FL, int P, int NH>
RungExit polish_rung(device::Device& dev,
                     const blas::Matrix<md::mdreal<P>>& ap,
                     const blas::Vector<md::mdreal<P>>& bp,
                     AdaptiveState<NH>& st, const AdaptiveOptions& opt,
                     util::RungStats& rs) {
  static_assert(FL <= P && P <= NH);
  using TP = md::mdreal<P>;
  using TF = md::mdreal<FL>;
  const int m = ap.rows(), c = ap.cols();
  blas::Vector<TP> r(m);

  md::ScopedTally host_scope(rs.host_ops);
  return refine_rung(
      opt.tol, st.cond_est, rung_floor(m, P), refine_iter_cap, rs,
      [&] {  // backward error at rung precision
        auto xp = narrow_vector<P, NH>(st.x);
        auto ax = blas::gemv(ap, std::span<const TP>(xp));
        for (int i = 0; i < m; ++i) r[i] = bp[i] - ax[i];
        auto g = blas::gemv_adjoint(ap, std::span<const TP>(r));
        return ResidualNorm{
            blas::norm_inf(std::span<const TP>(g)).to_double(),
            st.anorm_one * (st.anorm_inf * dnorm_inf_vec(st.x) + st.bnorm_inf)};
      },
      [&] {  // correction on the (possibly lower-precision) factors
        blas::Vector<TF> rf(m);
        for (int i = 0; i < m; ++i) rf[i] = r[i].template to_precision<FL>();
        auto dx = st.template slot<FL>().solve_on(dev, std::span<const TF>(rf),
                                                  opt.tile);
        for (int j = 0; j < c; ++j)
          st.x[j] += dx[j].template to_precision<NH>();
      });
}

// One rung of the ladder at precision P.
template <int P, int NH>
RungExit run_rung(const device::DeviceSpec& spec,
                  const blas::Matrix<md::mdreal<NH>>& a,
                  const blas::Vector<md::mdreal<NH>>& b, AdaptiveState<NH>& st,
                  const AdaptiveOptions& opt, AdaptiveLsqResult<NH>& out) {
  static_assert(P <= NH);
  const int c = a.cols();

  util::RungStats rs;
  rs.precision = md::Precision(P);

  const bool refactor = st.factor_limbs == 0 || st.factors_stagnated ||
                        must_refactor(st.cond_est, st.factor_limbs);

  // The rung is a parent span over every launch it issues; the name
  // records the refine-vs-refactor decision and the modeled price is the
  // rung's whole device schedule (attached after the device is drained).
  obs::Span rung_span(refactor ? "rung refactor" : "rung refine",
                      obs::Cat::ladder, P);

  auto ap = narrow_matrix<P, NH>(a);
  auto bp = narrow_vector<P, NH>(b);

  // One device per rung, at the precision of its launches: P when the
  // rung factorizes, the live factors' precision when it refines.
  const int dev_limbs = refactor ? P : st.factor_limbs;
  device::Device dev(spec, md::Precision(dev_limbs),
                     device::ExecMode::functional);
  dev.set_parallelism(opt.tile_pool, opt.parallelism);
  rs.device_precision = md::Precision(dev_limbs);
  if (refactor) {
    auto sol = least_squares_resident_run<md::mdreal<P>>(dev, &ap, &bp,
                                                         ap.rows(), c,
                                                         opt.tile);
    auto f = LadderFactors<P>::from_staged(std::move(sol.factors), c);
    blas::TriCondEstimate est;
    launch_cond_est(dev, c, opt.tile, 8 * std::int64_t(P), [&] {
      est = blas::tri_condition_inf(f.rtop.view(), c);
    });
    st.cond_est = est.cond;
    for (int j = 0; j < c; ++j)
      st.x[j] = sol.x[j].template to_precision<NH>();
    st.template set_factors<P>(std::move(f));
    rs.refactorized = true;
  }
  rs.cond_estimate = st.cond_est;

  RungExit exit = RungExit::stagnated;
  with_limbs(st.factor_limbs, [&](auto tag) {
    constexpr int FL = decltype(tag)::limbs;
    // The ladder never refines at a precision below its factors, so the
    // guard only prunes impossible instantiations.
    if constexpr (FL <= P)
      exit = polish_rung<FL, P, NH>(dev, ap, bp, st, opt, rs);
  });
  if (exit == RungExit::stagnated) st.factors_stagnated = true;

  const device::DeviceUsage u = dev.usage();
  rs.analytic = u.analytic;
  rs.measured = u.measured;
  rs.kernel_ms = u.kernel_ms;
  rs.wall_ms = u.wall_ms;
  rung_span.set_modeled_ms(rs.kernel_ms);

  out.final_precision = rs.precision;
  out.converged = rs.accepted;
  out.rungs.push_back(std::move(rs));
  return exit;
}

}  // namespace detail

// The adaptive driver.  A and b live at the target precision NH; the
// ladder climbs resolve_rungs(opt.rungs, NH) — by default the doubling
// sequence from d2.  Requires cols % opt.tile == 0 (the device pipeline's
// tiling contract) and a real scalar type; invalid shapes and rung
// sequences throw std::invalid_argument (release-mode safe).
template <int NH>
AdaptiveLsqResult<NH> adaptive_least_squares(
    const device::DeviceSpec& spec, const blas::Matrix<md::mdreal<NH>>& a,
    const blas::Vector<md::mdreal<NH>>& b, const AdaptiveOptions& opt = {}) {
  static_assert(NH >= 1, "mdreal needs at least one limb");
  if (opt.tile < 1 || a.cols() % opt.tile != 0)
    throw std::invalid_argument(
        "mdlsq: adaptive_least_squares requires tile >= 1 dividing cols");
  if (a.rows() < a.cols())
    throw std::invalid_argument(
        "mdlsq: adaptive_least_squares requires rows >= cols");
  if (static_cast<int>(b.size()) != a.rows())
    throw std::invalid_argument(
        "mdlsq: adaptive_least_squares requires b.size() == rows");

  const std::vector<int> ladder = resolve_rungs(opt.rungs, NH);

  // A standalone call with parallelism but no shared pool owns one for
  // the ladder's duration (batched_lsq hands every problem its shared
  // tile pool instead).
  AdaptiveOptions aopt = opt;
  std::optional<util::ThreadPool> owned_pool;
  if (aopt.parallelism > 1 && aopt.tile_pool == nullptr) {
    owned_pool.emplace(aopt.parallelism - 1);
    aopt.tile_pool = &*owned_pool;
  }

  AdaptiveLsqResult<NH> out;
  detail::AdaptiveState<NH> st;
  st.x.assign(a.cols(), md::mdreal<NH>{});
  st.anorm_one = detail::dnorm_one_mat(a);
  st.anorm_inf = detail::dnorm_inf_mat(a);
  st.bnorm_inf = detail::dnorm_inf_vec(b);

  // Climb until a rung accepts; a non-finite measurement stops the climb
  // (no precision repairs NaN or Inf input).
  for (const int l : ladder) {
    RungExit exit = RungExit::stagnated;
    with_limbs(l, [&](auto tag) {
      constexpr int P = decltype(tag)::limbs;
      // resolve_rungs already dropped the rungs above NH; the guard only
      // prunes impossible instantiations.
      if constexpr (P <= NH)
        exit = detail::run_rung<P, NH>(spec, a, b, st, aopt, out);
    });
    if (exit == RungExit::accepted || exit == RungExit::nonfinite) break;
  }

  out.x = std::move(st.x);
  return out;
}

// Dry-run pricing of the adaptive schedule for the sharding policies: a
// factorization (plus condition estimate) at the resolved sequence's first
// rung, then dry_refine_sweeps correction solves per later rung on that
// rung's factors — the expected path when conditioning permits reuse.
// Escalation decisions are data-dependent, so this is a model, not a
// replay (DESIGN.md section 4).
struct AdaptiveDryResult {
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
};

template <class T>
AdaptiveDryResult adaptive_least_squares_dry(const device::DeviceSpec& spec,
                                             int rows, int cols,
                                             const AdaptiveOptions& opt = {}) {
  static_assert(!blas::is_complex_v<T>,
                "the adaptive ladder runs on real problems");
  constexpr int NH = blas::scalar_traits<T>::limbs;
  if (opt.tile < 1 || cols % opt.tile != 0)
    throw std::invalid_argument(
        "mdlsq: adaptive_least_squares_dry requires tile >= 1 dividing cols");
  const std::vector<int> ladder = resolve_rungs(opt.rungs, NH);

  AdaptiveDryResult out;
  with_limbs(ladder.front(), [&](auto tag) {
    using TS = decltype(tag);
    {  // the starting rung factorizes
      device::Device dev(spec, md::Precision(TS::limbs),
                         device::ExecMode::dry_run);
      least_squares_resident_run<TS>(dev, nullptr, nullptr, rows, cols,
                                     opt.tile);
      detail::launch_cond_est(dev, cols, opt.tile, 8 * std::int64_t(TS::limbs),
                              [] {});
      util::RungStats rs;
      rs.precision = rs.device_precision = md::Precision(TS::limbs);
      rs.refactorized = true;
      const device::DeviceUsage u = dev.usage();
      rs.analytic = u.analytic;
      rs.kernel_ms = u.kernel_ms;
      rs.wall_ms = u.wall_ms;
      out.rungs.push_back(std::move(rs));
    }
    for (std::size_t k = 1; k < ladder.size(); ++k) {
      const int l = ladder[k];
      // later rungs refine on the starting rung's factors
      device::Device dev(spec, md::Precision(TS::limbs),
                         device::ExecMode::dry_run);
      for (int k = 0; k < dry_refine_sweeps; ++k)
        correction_solve_dry<TS>(dev, rows, cols, opt.tile);
      util::RungStats rs;
      rs.precision = md::Precision(l);
      rs.device_precision = md::Precision(TS::limbs);
      rs.refine_iterations = dry_refine_sweeps;
      const device::DeviceUsage u = dev.usage();
      rs.analytic = u.analytic;
      rs.kernel_ms = u.kernel_ms;
      rs.wall_ms = u.wall_ms;
      out.rungs.push_back(std::move(rs));
    }
  });
  return out;
}

}  // namespace mdlsq::core
