// The factor-reusing correction solve: mixed-precision iterative
// refinement's inner step.  A QR factorization in a LOW multiple-double
// precision (cheap, by the overhead factors of Table 1) combined with
// residuals evaluated in a HIGH precision recovers the high-precision
// solution in a few cheap sweeps — provided the conditioning fits inside
// the low format.  Each sweep:
//
//     r  = b - A x                 (high precision, the caller's)
//     dx = argmin || r - A dx ||   (reusing the low-precision factors)
//     x += dx
//
// converges linearly with rate ~ kappa(A) * eps_low.  The one driver of
// those sweeps is the adaptive precision ladder (adaptive_lsq.hpp, with
// its stop rules in ladder.hpp); the path tracker's corrector runs the
// same loop against its Jacobian's factors.
//
// The correction solve itself has one host body
// (least_squares_with_factors, core/back_substitution.hpp) and one
// device-priced body (correction_solve_staged_run below), which runs
// against factors held resident in a ResidentQr — the factor store of the
// adaptive ladder (adaptive_lsq.hpp), of the block Toeplitz solver behind
// the path tracker (block_toeplitz.hpp) and of the solver service's
// factor cache (serve/factor_cache.hpp).  Both bodies call the same two
// kernels of blas/panel.hpp, which for a real mdreal<N> run the fused
// N-limb sequences (DESIGN.md §9): Q^H r as a fused column dot and each
// back-substitution row's fms chain, with each row's division an mdreal
// operator.
#pragma once

#include <cassert>
#include <span>
#include <stdexcept>
#include <utility>

#include "blas/panel.hpp"
#include "core/back_substitution.hpp"
#include "core/blocked_qr.hpp"

namespace mdlsq::core {

namespace stage {
inline constexpr const char* ref_qhr = "refine Q^H r";
inline constexpr const char* ref_bs = "refine back sub";
}  // namespace stage

// The device-priced correction solve min ||r - A dx|| against cached QR
// factors: y = (Q^H r)[0:c], then back substitution on R's leading
// c-by-c triangle, issued as the "refine Q^H r" + "refine back sub"
// launches so every refinement iteration of the adaptive ladder and every
// corrector step of the path tracker is priced like any other kernel.
// `q` holds (at least) Q's leading c columns and `rtop` the c-by-c
// triangle (zeros below the diagonal), both staged (ResidentQr below);
// the host reference least_squares_with_factors runs the same two
// kernels of blas/panel.hpp, so the result is limb-identical to it.  Null factors (and an empty `r`)
// in dry-run mode, where only the dimensions drive the schedule; the
// declared tallies match the functional bodies exactly.
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
                 blas::gemv_adjoint_cols<T>(q->view(0, 0, m, c), r,
                                            std::span<T>(y));
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
template <class T>
void correction_solve_dry(device::Device& dev, int m, int c, int tile) {
  assert(dev.mode() == device::ExecMode::dry_run);
  correction_solve_staged_run<T>(dev, nullptr, nullptr, {}, m, c, tile);
}

// QR factors held device-resident for repeated correction solves: Q's
// leading c columns and R's leading c-by-c triangle with zeros below the
// diagonal — all the solves read.  The one form in which any driver keeps
// factors: the adaptive ladder, the block Toeplitz solver and the solver
// service's factor cache.
template <class T>
struct ResidentQr {
  device::Staged2D<T> q;     // m-by-c: Q's leading columns
  device::Staged2D<T> rtop;  // c-by-c upper triangle

  int rows() const noexcept { return q.rows(); }
  int cols() const noexcept { return rtop.cols(); }
  std::int64_t bytes() const noexcept { return q.bytes() + rtop.bytes(); }

  // Keeps the factors the staged QR left resident, trimmed to what the
  // solves read: Q's leading c columns (Q moves when it has no more) and
  // R's leading triangle, both copied plane-contiguously on the device —
  // structural copies, no transfer and no multiple-double operation.
  static ResidentQr from_staged(StagedQr<T>&& f, int c) {
    return {leading_columns(std::move(f.q), c), upper_triangle(f.r, c)};
  }

  // The priced correction solve on these factors; `r` has rows() entries.
  blas::Vector<T> solve_on(device::Device& dev, std::span<const T> r,
                           int tile) const {
    return correction_solve_staged_run<T>(dev, &q, &rtop, r, rows(), cols(),
                                          tile);
  }

 private:
  static device::Staged2D<T> leading_columns(device::Staged2D<T>&& q, int c) {
    if (q.cols() == c) return std::move(q);
    const int m = q.rows();
    device::Staged2D<T> t(m, c);
    const auto qv = q.view();
    const auto tv = t.view();
    for (int i = 0; i < m; ++i)
      for (int s = 0; s < blas::StagedView<T>::planes; ++s)
        md::planes::copy(qv.row_segment(s, i, 0, c),
                         tv.row_segment(s, i, 0, c));
    return t;
  }
};

}  // namespace mdlsq::core
