// The least-squares solver: blocked Householder QR (Algorithm 2) followed
// by Q^H b and the tiled accelerated back substitution (Algorithm 1) on
// the leading C-by-C block of R — the paper's headline pipeline (Section
// 4.9, Table 11).  Solves min_x ||b - A x||_2 for M-by-C matrices, M >= C,
// real or complex, in any multiple-double precision.
//
// Staged-resident pipeline (DESIGN.md §8): A and b are staged ONCE
// (explicit priced transfers), the QR factors stay device-resident, the
// Q^H b launch reads the resident Q, the leading triangle of the resident
// R is copied plane-contiguously into the back-substitution operand (a
// device-side structural copy — no multiple-double operations, no
// transfer), and the solution is unstaged at the end.  That resident
// pipeline (least_squares_resident_run) also serves the adaptive ladder
// and the solver service, which keep the factors resident; only
// least_squares unstages Q and R too, as the paper's pipeline does.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <utility>

#include "blas/gemm.hpp"
#include "core/blocked_qr.hpp"
#include "core/tiled_back_sub.hpp"

namespace mdlsq::core {

namespace stage {
inline constexpr const char* qhb = "Q^H*b";
}

// The solution and the QR factors (functional mode only): unstaged host
// factors from least_squares, still-resident ones (ResidentLsq) from the
// resident pipeline that drivers reusing factors run.
template <class T, class Factors = QrFactors<T>>
struct LeastSquaresResult {
  blas::Vector<T> x;
  double qr_kernel_ms = 0;  // modeled kernel time of the QR phase
  double bs_kernel_ms = 0;  // modeled kernel time of Q^H b + back subst.
  Factors factors;
};
template <class T>
using ResidentLsq = LeastSquaresResult<T, StagedQr<T>>;

// The post-factorization stages of the pipeline — y = (Q^H b)[0:C]
// against a RESIDENT Q, the plane-contiguous copy of R's leading triangle
// into the back-substitution operand, and the tiled back substitution —
// shared verbatim by the cold pipeline (least_squares_resident_run below)
// and the serve layer's warm cache-hit path (serve/service.hpp).  `q`
// and `r` hold at least Q's leading C columns and R's leading C-by-C
// triangle — the staged QR's full factors or a ResidentQr's thin ones —
// read in place.  Warm solves are limb-identical to cold solves by
// construction: the QR pipeline is deterministic, so cached factors are
// bit-identical to freshly computed ones, and this function issues the
// identical launches either way.
// Functional mode returns the resident solution (the caller unstages it);
// dry-run mode prices the identical schedule with null operands.
template <class T>
device::Staged1D<T> staged_lsq_finish(device::Device& dev,
                                      const device::Staged2D<T>* q,
                                      const device::Staged2D<T>* r,
                                      const device::Staged1D<T>* sb, int M,
                                      int C, int tile) {
  using O = ops_of<T>;
  const bool fn = dev.functional();
  assert(!fn || (q != nullptr && r != nullptr && sb != nullptr &&
                 q->rows() == M && q->cols() >= C && r->rows() >= C &&
                 r->cols() >= C));
  const std::int64_t esz = 8 * blas::scalar_traits<T>::doubles_per_element;

  // y = (Q^H b)[0:C] against the RESIDENT Q, one block per output entry;
  // each y_j is one whole dot product, so the launch fans out over column
  // blocks (DESIGN.md §5).
  device::Staged1D<T> y;
  if (fn) y = device::Staged1D<T>(C);
  {
    const md::OpTally ops = O::fma() * (std::int64_t(M) * C);
    const md::OpTally serial = O::fma() * ceil_div(M, tile) + O::add() * 6;
    dev.launch_tiled(
        stage::qhb, C, tile, ops, (std::int64_t(M) * C + M + C) * esz,
        serial, blas::block_count(C, dev.parallelism()), [&](int task) {
          const auto blk = blas::block_range(C, dev.parallelism(), task);
          const auto qv = q->view();
          const auto bv = sb->view();
          for (int j = blk.begin; j < blk.end; ++j) {
            T s{};
            for (int i = 0; i < M; ++i)
              s += blas::conj_of(qv.get(i, j)) * bv.get(i, 0);
            y.set(j, s);
          }
        });
  }

  if (fn) {
    // The back substitution inverts diagonal tiles in place, so it runs
    // on a copy of R's leading triangle — the resident factors stay
    // intact for reuse.
    device::Staged2D<T> rtop = upper_triangle(*r, C);
    tiled_back_sub_staged_run<T>(dev, &rtop, &y, C / tile, tile);
  } else {
    tiled_back_sub_staged_run<T>(dev, nullptr, nullptr, C / tile, tile);
  }
  return y;
}

// The one resident pipeline on M-by-C operands `a`/`b` (null in dry-run
// mode): A, b in, blocked QR, staged_lsq_finish, x out; the factors stay
// resident.  The shape contract is checked before any staging or launch.
template <class T>
ResidentLsq<T> least_squares_resident_run(device::Device& dev,
                                          const blas::Matrix<T>* a,
                                          const blas::Vector<T>* b, int M,
                                          int C, int tile) {
  check_qr_shape("least_squares", M, C, tile);
  const bool fn = dev.functional();
  assert(!fn || (a != nullptr && b != nullptr));

  ResidentLsq<T> out;

  // Stage the inputs once; every intermediate below stays resident.
  device::Staged2D<T> sa;
  device::Staged1D<T> sb;
  if (fn) {
    sa = dev.stage(*a);
    sb = dev.stage(*b);
  } else {
    dev.price_staging<T>(M, C);
    dev.price_staging<T>(M, 1);
  }

  out.factors = blocked_qr_staged_run<T>(dev, fn ? &sa : nullptr, M, C,
                                         tile);
  out.qr_kernel_ms = dev.kernel_ms();

  device::Staged1D<T> y = staged_lsq_finish<T>(
      dev, fn ? &out.factors.q : nullptr, fn ? &out.factors.r : nullptr,
      fn ? &sb : nullptr, M, C, tile);
  out.bs_kernel_ms = dev.kernel_ms() - out.qr_kernel_ms;

  if (fn)
    out.x = dev.unstage(y);
  else
    dev.price_staging<T>(C, 1);
  return out;
}

// The least_squares pipeline: the resident one, then Q and R unstaged
// too (the paper's pipeline returns the factors) — A, b in and x, Q, R
// out.
template <class T>
LeastSquaresResult<T> least_squares_run(device::Device& dev,
                                        const blas::Matrix<T>* a,
                                        const blas::Vector<T>* b, int M,
                                        int C, int tile) {
  ResidentLsq<T> res = least_squares_resident_run<T>(dev, a, b, M, C, tile);
  LeastSquaresResult<T> out{std::move(res.x), res.qr_kernel_ms,
                            res.bs_kernel_ms, {}};
  if (dev.functional()) {
    out.factors = {dev.unstage(res.factors.q), dev.unstage(res.factors.r)};
  } else {
    dev.price_staging<T>(M, M);
    dev.price_staging<T>(M, C);
  }
  return out;
}

// Functional entry point.
template <class T>
LeastSquaresResult<T> least_squares(device::Device& dev,
                                    const blas::Matrix<T>& a,
                                    const blas::Vector<T>& b, int tile) {
  if (static_cast<int>(b.size()) != a.rows())
    throw std::invalid_argument(
        "mdlsq: least_squares: right-hand side length must equal the row "
        "count");
  return least_squares_run<T>(dev, &a, &b, a.rows(), a.cols(), tile);
}

// Dry-run entry point.
template <class T>
LeastSquaresResult<T> least_squares_dry(device::Device& dev, int rows,
                                        int cols, int tile) {
  assert(dev.mode() == device::ExecMode::dry_run);
  return least_squares_run<T>(dev, nullptr, nullptr, rows, cols, tile);
}

}  // namespace mdlsq::core
