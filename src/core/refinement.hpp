// Mixed-precision iterative refinement for least squares.
//
// An extension in the spirit of the paper's cost analysis: a QR
// factorization in a LOW multiple-double precision (cheap, by the
// overhead factors of Table 1) combined with residual evaluation in the
// HIGH target precision recovers the high-precision solution in a few
// cheap iterations — provided the conditioning fits inside the low
// format.  Each iteration:
//
//     r  = b - A x                 (high precision)
//     dx = argmin || r - A dx ||   (reusing the low-precision factors)
//     x += dx
//
// converges linearly with rate ~ kappa(A) * eps_low; the driver stops on
// stagnation or when the correction falls below eps_high.
//
// The bench_ablation_refinement binary prices this against a direct
// high-precision solve on the device model.
#pragma once

#include <cassert>
#include <span>
#include <vector>

#include "blas/gemm.hpp"
#include "core/back_substitution.hpp"
#include "core/blocked_qr.hpp"
#include "core/householder.hpp"
#include "md/mdreal.hpp"

namespace mdlsq::core {

namespace stage {
inline constexpr const char* ref_qhr = "refine Q^H r";
inline constexpr const char* ref_bs = "refine back sub";
}  // namespace stage

// Device-priced correction solve min ||r - A dx|| against already-computed
// QR factors: y = (Q^H r)[0:c], then back substitution on the top block of
// R — the same arithmetic as LowPrecisionFactors::solve, issued as two
// kernel launches so the device model prices each refinement iteration of
// the adaptive ladder.  `f` is null (and `r` empty) in dry-run mode, where
// only the dimensions drive the schedule; the declared tallies match the
// functional bodies exactly, as everywhere else.
template <class TL>
blas::Vector<TL> correction_solve_run(device::Device& dev,
                                      const QrFactors<TL>* f,
                                      std::span<const TL> r, int m, int c,
                                      int tile) {
  using O = ops_of<TL>;
  [[maybe_unused]] const bool fn = dev.functional();
  assert(!fn || (f != nullptr && static_cast<int>(r.size()) == m));
  const std::int64_t esz = 8 * blas::scalar_traits<TL>::doubles_per_element;

  // Wall-clock transfer model: residual in, correction out.
  dev.transfer((std::int64_t(m) + c) * esz);

  blas::Vector<TL> y(c);
  {
    const md::OpTally ops = O::fma() * (std::int64_t(m) * c);
    const md::OpTally serial = O::fma() * ceil_div(m, tile) + O::add() * 6;
    dev.launch(stage::ref_qhr, c, tile, ops,
               (std::int64_t(m) * c + m + c) * esz, serial, [&] {
                 for (int j = 0; j < c; ++j) {
                   TL s{};
                   for (int i = 0; i < m; ++i)
                     s += blas::conj_of(f->q(i, j)) * r[i];
                   y[j] = s;
                 }
               });
  }

  blas::Vector<TL> dx;
  {
    const md::OpTally ops =
        O::fms() * (std::int64_t(c) * (c - 1) / 2) + O::div() * c;
    // The solve is one dependency chain from the last row up.
    const md::OpTally serial = (O::fms() + O::div()) * c;
    dev.launch(stage::ref_bs, 1, tile, ops,
               (std::int64_t(c) * c / 2 + 2 * c) * esz, serial, [&] {
                 blas::Matrix<TL> top(c, c);
                 for (int i = 0; i < c; ++i)
                   for (int j = i; j < c; ++j) top(i, j) = f->r(i, j);
                 dx = back_substitute(top, std::span<const TL>(y));
               });
  }
  return dx;
}

// Staged-resident correction solve: the identical two launches issued
// against RESIDENT factors — `q` the staged m-by-m unitary factor, `rtop`
// the staged c-by-c leading triangle of R (zeros below the diagonal) —
// through the layout-generic kernels of blas/panel.hpp.  Null factors
// (and empty `r`) in dry-run mode.  Same declared tallies, bytes and
// residual-in/correction-out transfer as correction_solve_run, and the
// same multiple-double operation order, so the result is limb-identical
// to a solve against the unstaged factors (the staged conformance suite
// pins it).
template <class T>
blas::Vector<T> correction_solve_staged_run(device::Device& dev,
                                            const device::Staged2D<T>* q,
                                            const device::Staged2D<T>* rtop,
                                            std::span<const T> r, int m,
                                            int c, int tile) {
  using O = ops_of<T>;
  const bool fn = dev.functional();
  if (fn && (q == nullptr || rtop == nullptr ||
             static_cast<int>(r.size()) != m || q->rows() != m ||
             q->cols() < c || rtop->rows() != c || rtop->cols() != c))
    throw std::invalid_argument(
        "mdlsq: staged correction solve needs resident factors and a "
        "matching residual");
  const std::int64_t esz = 8 * blas::scalar_traits<T>::doubles_per_element;

  // Wall-clock transfer model: residual in, correction out.
  dev.transfer((std::int64_t(m) + c) * esz);

  blas::Vector<T> y(c);
  {
    const md::OpTally ops = O::fma() * (std::int64_t(m) * c);
    const md::OpTally serial = O::fma() * ceil_div(m, tile) + O::add() * 6;
    dev.launch(stage::ref_qhr, c, tile, ops,
               (std::int64_t(m) * c + m + c) * esz, serial, [&] {
                 blas::gemv_adjoint_cols<T>(q->view(), r, std::span<T>(y), 0,
                                            c);
               });
  }

  blas::Vector<T> dx;
  {
    const md::OpTally ops =
        O::fms() * (std::int64_t(c) * (c - 1) / 2) + O::div() * c;
    // The solve is one dependency chain from the last row up.
    const md::OpTally serial = (O::fms() + O::div()) * c;
    dev.launch(stage::ref_bs, 1, tile, ops,
               (std::int64_t(c) * c / 2 + 2 * c) * esz, serial, [&] {
                 dx = blas::back_substitute_view<T>(rtop->view(),
                                                    std::span<const T>(y));
               });
  }
  return dx;
}

// Dry-run pricing of one correction solve for given dimensions.
template <class TL>
void correction_solve_dry(device::Device& dev, int m, int c, int tile) {
  assert(dev.mode() == device::ExecMode::dry_run);
  correction_solve_run<TL>(dev, nullptr, {}, m, c, tile);
}

template <int NH>
struct RefinementResult {
  blas::Vector<md::mdreal<NH>> x;
  std::vector<double> residual_history;  // ||b - A x||_inf per iteration
  int iterations = 0;
  bool converged = false;
};

// Precomputed low-precision factorization, reusable across right-hand
// sides (the expensive part; O(n^3) in the cheap format).
template <int NL>
struct LowPrecisionFactors {
  QrFactors<md::mdreal<NL>> qr;

  template <int NH>
  static LowPrecisionFactors factor(const blas::Matrix<md::mdreal<NH>>& a) {
    blas::Matrix<md::mdreal<NL>> al(a.rows(), a.cols());
    for (int i = 0; i < a.rows(); ++i)
      for (int j = 0; j < a.cols(); ++j)
        al(i, j) = a(i, j).template to_precision<NL>();
    return {householder_qr(al)};
  }

  // Solve min ||r - A dx|| with the stored factors; r given in low
  // precision.
  blas::Vector<md::mdreal<NL>> solve(
      std::span<const md::mdreal<NL>> r) const {
    using TL = md::mdreal<NL>;
    const int m = qr.q.rows(), c = qr.r.cols();
    blas::Vector<TL> y(c);
    for (int j = 0; j < c; ++j) {
      TL s{};
      for (int i = 0; i < m; ++i) s += blas::conj_of(qr.q(i, j)) * r[i];
      y[j] = s;
    }
    blas::Matrix<TL> top(c, c);
    for (int i = 0; i < c; ++i)
      for (int j = i; j < c; ++j) top(i, j) = qr.r(i, j);
    return back_substitute(top, std::span<const TL>(y));
  }

  // Same solve, issued through the device model so refinement iterations
  // are priced like every other kernel (the adaptive ladder's escalation
  // currency).
  blas::Vector<md::mdreal<NL>> solve_on(device::Device& dev,
                                        std::span<const md::mdreal<NL>> r,
                                        int tile) const {
    return correction_solve_run<md::mdreal<NL>>(dev, &qr, r, qr.q.rows(),
                                                qr.r.cols(), tile);
  }
};

// Full driver: factor once in NL limbs, refine to NH limbs.
template <int NL, int NH>
RefinementResult<NH> refined_least_squares(
    const blas::Matrix<md::mdreal<NH>>& a,
    std::span<const md::mdreal<NH>> b, int max_iterations = 40) {
  static_assert(NL < NH, "refinement needs a cheaper working precision");
  using TH = md::mdreal<NH>;
  using TL = md::mdreal<NL>;
  const int m = a.rows(), c = a.cols();
  assert(static_cast<int>(b.size()) == m);

  auto factors = LowPrecisionFactors<NL>::factor(a);

  RefinementResult<NH> out;
  out.x.assign(c, TH{});
  double prev = std::numeric_limits<double>::infinity();
  for (int it = 0; it < max_iterations; ++it) {
    // High-precision residual.
    auto ax = blas::gemv(a, std::span<const TH>(out.x));
    blas::Vector<TH> r(m);
    for (int i = 0; i < m; ++i) r[i] = b[i] - ax[i];
    // For overdetermined systems the relevant residual is the gradient
    // A^H r, which must vanish at the solution.
    auto g = blas::gemv_adjoint(a, std::span<const TH>(r));
    const double gnorm =
        blas::norm_inf(std::span<const TH>(g)).to_double();
    out.residual_history.push_back(gnorm);
    out.iterations = it;
    if (gnorm < TH::eps() * 16.0 * (1.0 + m)) {
      out.converged = true;
      break;
    }
    if (it > 2 && gnorm > prev * 0.5) break;  // stagnation: kappa too big
    prev = gnorm;

    // Cheap correction.
    blas::Vector<TL> rl(m);
    for (int i = 0; i < m; ++i) rl[i] = r[i].template to_precision<NL>();
    auto dxl = factors.solve(std::span<const TL>(rl));
    for (int j = 0; j < c; ++j)
      out.x[j] += dxl[j].template to_precision<NH>();
  }
  return out;
}

}  // namespace mdlsq::core
