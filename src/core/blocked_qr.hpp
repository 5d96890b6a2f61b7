// Blocked accelerated Householder QR — Algorithm 2 of the paper — on the
// device simulator, with the WY representation of aggregated reflectors
// (Bischof & Van Loan).
//
// The factorization proceeds tile by tile over column panels of width n.
// Per tile k (r0 = k*n, Lk = M - r0 active rows):
//   stage 1, per column: "beta,v" builds the Householder vector and beta;
//     "betaRT*v" forms the row update w = beta (v^H R_panel); "update R"
//     applies R -= v w.
//   stage 2: "compute W" accumulates W column by column via
//     z = -beta (v + W (Y^H v))   — the paper's formula (16);
//   stage 3: "Y*W^T" forms YWT = Y W^H once; "Q*WY^T" multiplies
//     Q[:, r0:M] by WY^H = YWT^H; "Q+QWY" adds it in — formula (14);
//   stage 4: "YWT*C" multiplies YWT into the trailing columns of R and
//     "R+YWTC" adds — formula (15).
// Stage names match the row legend of the paper's Tables 3-6.
//
// Staged-resident execution (DESIGN.md §8).  The factorization is the
// staged-resident driver blocked_qr_staged_run: the input arrives as a
// device::Staged2D (limb-planar, one plane of doubles per limb), every
// intermediate — R, Q, Y, W, YWT, scratch — lives in staged storage for
// the whole schedule, and the factors are RETURNED resident so downstream
// launches (Q^H b, back substitution, factor-reusing correction solves)
// read them without a host round trip.  Kernel bodies address the planes
// through blas::StagedView.  The panel dots, the rank-1 apply, the WY
// gemms and the element-wise adds go through blas/fused.hpp: for a real
// scalar at any limb count they run the fused N-limb SIMD kernels
// (DESIGN.md §9), for a complex one the accessor-generic bodies, both in
// the stated operation orders.  compute W and beta,v run mdreal
// operators at every precision.  The host entry
// points below wrap the driver in explicit priced stage()/unstage()
// transfers; their schedules and transfer totals are unchanged from the
// pre-resident code (the model always priced A in and Q, R out).
//
// Host execution engine (DESIGN.md §5).  The schedule above is a task
// graph: each column of the panel factorization is a short sequential
// chain (its reflector feeds the next column), while everything after the
// panel — the W accumulation rows and the aggregated WY trailing updates
// of stages 3/4, the (I - V T V^H)-style products of formulas (14)/(15) —
// decomposes into independent per-tile tasks that own disjoint row or
// column blocks of their output.  launch_tiled() runs those tasks on the
// Device's util::ThreadPool (dev.set_parallelism), with each launch a
// join point, exactly the stream-ordered dependency structure a GPU
// enforces between kernels.  Every output element's reduction runs
// wholly inside one task in fixed ascending order (blas/fused.hpp), so
// results are bit-identical at every parallelism width, and per-task
// tallies sum to the same declared counts.
//
// Every launch declares its exact analytic op tally (tally_rules.hpp);
// the functional bodies are written so the measured tally matches it
// exactly, which the test suite asserts.  In dry-run mode only the
// schedule is priced (no data is touched), enabling the paper's largest
// dimensions.
#pragma once

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "blas/fused.hpp"
#include "blas/gemm.hpp"
#include "blas/matrix.hpp"
#include "blas/vector_ops.hpp"
#include "core/householder.hpp"
#include "core/tally_rules.hpp"
#include "device/launch.hpp"
#include "device/staged.hpp"
#include "md/planes.hpp"
#include "obs/trace.hpp"

namespace mdlsq::core {

namespace stage {
inline constexpr const char* beta_v = "beta,v";
inline constexpr const char* betaRTv = "betaRT*v";
inline constexpr const char* update_R = "update R";
inline constexpr const char* compute_W = "compute W";
inline constexpr const char* YWT = "Y*W^T";
inline constexpr const char* QWYT = "Q*WY^T";
inline constexpr const char* YWTC = "YWT*C";
inline constexpr const char* Q_plus_QWY = "Q+QWY";
inline constexpr const char* R_plus_YWTC = "R+YWTC";
}  // namespace stage

inline constexpr int ceil_div(int a, int b) noexcept { return (a + b - 1) / b; }

// The factors left device-resident by the staged driver (functional mode
// only; both empty after a dry run).
template <class T>
struct StagedQr {
  device::Staged2D<T> q;  // M-by-M unitary
  device::Staged2D<T> r;  // M-by-C upper triangular
};

// R's leading c-by-c triangle as its own staged buffer, zeros below the
// diagonal: plane-contiguous row-segment copies, a device-side structural
// copy (no multiple-double operations, no transfer).  The back
// substitutions run on such copies, so the resident R stays intact.
template <class T>
device::Staged2D<T> upper_triangle(const device::Staged2D<T>& r, int c) {
  device::Staged2D<T> t(c, c);
  const auto rv = r.view();
  const auto tv = t.view();
  for (int i = 0; i < c; ++i)
    for (int s = 0; s < blas::StagedView<T>::planes; ++s)
      md::planes::copy(rv.row_segment(s, i, i, c - i),
                       tv.row_segment(s, i, i, c - i));
  return t;
}

// The shape contract of every blocked-QR and least-squares entry point:
// an M-by-C operand with C a whole number of n-column tiles and M >= C.
// Returns the violated rule, or nullptr when the shape is valid.
inline const char* qr_shape_error(int M, int C, int n) noexcept {
  if (n < 1) return "tile must be >= 1";
  if (C % n != 0) return "column count must be a multiple of the tile";
  if (M < C) return "row count must be >= column count";
  return nullptr;
}

// Throws std::invalid_argument (kept under NDEBUG) on a shape that
// violates the contract above — entry points call it before any staging
// or launch, so a rejected call leaves the device untouched.
inline void check_qr_shape(const char* who, int M, int C, int n) {
  if (const char* e = qr_shape_error(M, C, n))
    throw std::invalid_argument(std::string("mdlsq: ") + who + ": " + e);
}

// Staged-resident driver: `a` is the staged input (consumed — its buffer
// becomes R), non-null in functional mode and null in dry-run mode; the
// factors are returned resident.  Launch schedule only — the explicit
// stage()/unstage() transfers belong to the entry points, so a pipeline
// that chains further resident launches does not pay phantom transfers.
template <class T>
StagedQr<T> blocked_qr_staged_run(device::Device& dev,
                                  device::Staged2D<T>* a, int M, int C,
                                  int n) {
  using traits = blas::scalar_traits<T>;
  using RT = blas::real_of_t<T>;
  using O = ops_of<T>;
  using md::OpTally;

  assert(qr_shape_error(M, C, n) == nullptr);
  const int NT = C / n;
  const bool fn = dev.functional();
  const std::int64_t esz = 8 * traits::doubles_per_element;
  // Tile tasks per launch: each task owns one contiguous output block.
  const int par = dev.parallelism();

  StagedQr<T> out;
  device::Staged2D<T>& R = out.r;
  device::Staged2D<T>& Q = out.q;
  // WR holds the panel's row update w = beta (v^H R_panel); the
  // reflector v itself is read from its column of Y.
  device::Staged2D<T> Y, W, YWT, SCR, WR;
  if (fn) {
    if (a == nullptr || a->rows() != M || a->cols() != C)
      throw std::invalid_argument(
          "mdlsq: blocked_qr staged input must be M-by-C");
    R = std::move(*a);
    Q = device::Staged2D<T>(M, M);
    for (int i = 0; i < M; ++i) Q.set(i, i, T(1.0));
    Y = device::Staged2D<T>(M, n);
    W = device::Staged2D<T>(M, n);
    YWT = device::Staged2D<T>(M, M);
    SCR = device::Staged2D<T>(M, M);  // scratch for QWY / YWTC
    WR = device::Staged2D<T>(1, n);
  }

  std::vector<T> v(M), u(n);
  std::vector<RT> betas(n);

  for (int k = 0; k < NT; ++k) {
    const int r0 = k * n;
    const int Lk = M - r0;

    // One panel wave = one parent span over tile k's stage 1-4 launches;
    // the child kernel spans carry the per-launch modeled prices.
    obs::Span panel_span("qr panel", obs::Cat::panel, traits::limbs);

    // ---- stage 1: panel factorization, column by column ----------------
    // Each column's reflector feeds the next column's data, so the chain
    // is sequential; only the trailing-panel updates (b)/(c) fan out.
    for (int l = 0; l < n; ++l) {
      const int cg = r0 + l;   // global pivot column
      const int L = M - cg;    // active column height

      {  // (a) Householder vector and beta — one task: the column norm
         // reduction must run in one fixed order.
        const OpTally ops = (O::abs2() + real_add()) * (2 * L) + real_sqrt() +
                            O::sign() + O::mul_real() + O::add() + real_div();
        const OpTally serial =
            (O::abs2() + real_add()) * (2 * ceil_div(L, n)) + real_sqrt() +
            O::sign() + O::mul_real() + O::add() + real_div();
        dev.launch(stage::beta_v, ceil_div(L, n), n, ops,
                   (2 * std::int64_t(L) + Lk) * esz, serial, [&] {
                     // Exact power-of-two column scaling guards against
                     // underflow of squared limbs (see make_reflector);
                     // the reflector (v, beta) is used in the scaled frame.
                     double mx = 0.0;
                     for (int i = 0; i < L; ++i) {
                       v[i] = R.get(cg + i, cg);
                       mx = std::max(mx, blas::lead_mag(v[i]));
                     }
                     const int e = mx == 0.0 ? 0 : std::ilogb(mx);
                     RT sig2{};
                     for (int i = 0; i < L; ++i) {
                       v[i] = blas::scale2(v[i], -e);
                       sig2 += blas::abs2(v[i]);
                     }
                     const RT sigma = sqrt(sig2);
                     const T s = blas::sign_like(v[0]);
                     const T t = s * sigma;
                     v[0] += t;
                     RT vtv{};
                     for (int i = 0; i < L; ++i) vtv += blas::abs2(v[i]);
                     betas[l] = RT(2.0) / vtv;
                     for (int i = 0; i < Lk; ++i) {
                       const int r = r0 + i;
                       Y.set(r, l, r < cg ? T{} : v[r - cg]);
                     }
                     R.set(cg, cg, blas::scale2(-t, e));
                     for (int i = 1; i < L; ++i) R.set(cg + i, cg, T{});
                   });
      }

      const int P = n - l - 1;  // trailing columns within the panel
      if (P > 0) {
        // The trailing panel R[cg:M, cg+1 : cg+1+P], the reflector (Y's
        // column l from row cg) and the row update the two fan-out
        // launches below address.
        const auto pan = fn ? R.view(cg, cg + 1, L, P) : blas::StagedView<T>();
        const auto vv = fn ? Y.view(cg, l, L, 1) : blas::StagedView<T>();
        const auto wv = fn ? WR.view(0, 0, 1, P) : blas::StagedView<T>();
        {  // (b) w = beta (v^H R_panel) — one task per column block, each
           // column's dot reduced start-to-end inside its task
          const OpTally ops =
              O::fma() * (std::int64_t(P) * L) + O::mul_real() * P;
          // Multi-block sum reduction: each block reduces an n-strip of the
          // column serially before the cross-block combine.
          const OpTally serial =
              O::fma() * std::min(L, n) + O::add() * 6 + O::mul_real();
          dev.launch_tiled(
              stage::betaRTv, P, n, ops, (std::int64_t(P) * L + L + P) * esz,
              serial, blas::block_count(P, par), [&](int task) {
                const auto blk = blas::block_range(P, par, task);
                blas::fused::col_dots<T>(pan, vv, betas[l], wv, blk.begin,
                                         blk.end);
              });
        }
        {  // (c) R_panel -= v w — disjoint column blocks of R
          const OpTally ops = O::fms() * (std::int64_t(P) * L);
          const OpTally serial = O::fms() * ceil_div(L, n);
          dev.launch_tiled(
              stage::update_R, P, n, ops,
              (2 * std::int64_t(P) * L + L + P) * esz, serial,
              blas::block_count(P, par), [&](int task) {
                const auto blk = blas::block_range(P, par, task);
                blas::fused::rank1_update<T>(pan, vv, wv, blk.begin,
                                             blk.end);
              });
        }
      }
    }

    // ---- stage 2: compute W (formula (16)) ------------------------------
    for (int l = 0; l < n; ++l) {
      if (l == 0) {
        const OpTally ops = O::mul_real() * Lk;
        dev.launch_tiled(stage::compute_W, ceil_div(Lk, n), n, ops,
                         2 * std::int64_t(Lk) * esz,
                         O::mul_real() * ceil_div(Lk, n),
                         blas::block_count(Lk, par), [&](int task) {
                           const auto blk = blas::block_range(Lk, par, task);
                           const RT nb = -betas[0];
                           for (int i = blk.begin; i < blk.end; ++i)
                             W.set(r0 + i, 0, Y.get(r0 + i, 0) * nb);
                         });
      } else {
        {  // u = Y[:,0:l]^H v_l  (multi-block matrix-vector + reduction);
           // each u_j is one whole dot, so tasks split over j only
          const OpTally ops = O::fma() * (std::int64_t(l) * Lk);
          const OpTally serial = O::fma() * ceil_div(Lk, n) + O::add() * 6;
          dev.launch_tiled(
              stage::compute_W, l, n, ops,
              ((std::int64_t(l) + 1) * Lk + l) * esz, serial,
              blas::block_count(l, par), [&](int task) {
                const auto blk = blas::block_range(l, par, task);
                for (int j = blk.begin; j < blk.end; ++j) {
                  T s{};
                  for (int i = 0; i < Lk; ++i)
                    s += blas::conj_of(Y.get(r0 + i, j)) * Y.get(r0 + i, l);
                  u[j] = s;
                }
              });
        }
        {  // z = -beta (v + W u) — row blocks; each row reads the frozen
           // columns W[:,0:l) and writes only W[row, l]
          const OpTally ops = O::fma() * (std::int64_t(l) * Lk) +
                              (O::add() + O::mul_real()) * Lk;
          // Each thread owns ceil(Lk/n) rows of the W u product and walks
          // their l columns serially — the W bottleneck of the paper.
          const OpTally serial =
              O::fma() * (std::int64_t(l) * ceil_div(Lk, n)) + O::add() +
              O::mul_real();
          dev.launch_tiled(
              stage::compute_W, ceil_div(Lk, n), n, ops,
              ((std::int64_t(l) + 2) * Lk + l) * esz, serial,
              blas::block_count(Lk, par), [&](int task) {
                const auto blk = blas::block_range(Lk, par, task);
                const RT nb = -betas[l];
                for (int i = blk.begin; i < blk.end; ++i) {
                  T s{};
                  for (int j = 0; j < l; ++j) s += W.get(r0 + i, j) * u[j];
                  W.set(r0 + i, l, (Y.get(r0 + i, l) + s) * nb);
                }
              });
        }
      }
    }

    // ---- stage 3: update Q (formula (14)) --------------------------------
    // Clear the previous tile's active block (one plane-contiguous sweep,
    // md::planes, no md ops).
    if (fn) YWT.fill_zero();
    {  // YWT = Y W^H, nonzero only on the active [r0,M) x [r0,M) block
      const OpTally ops = O::fma() * (std::int64_t(Lk) * Lk * n);
      dev.launch_tiled(
          stage::YWT, Lk * ceil_div(Lk, n), n, ops,
          (2 * std::int64_t(Lk) * n + std::int64_t(Lk) * Lk) * esz,
          O::fma() * n, blas::block_count(Lk, par), [&](int task) {
            const auto blk = blas::block_range(Lk, par, task);
            blas::fused::gemm_nt<T>(Y.view(r0, 0, Lk, n), W.view(r0, 0, Lk, n),
                                    YWT.view(r0, r0, Lk, Lk), 0, Lk,
                                    blk.begin, blk.end, 0, n);
          });
    }
    {  // QWY = Q (YWT)^H — the full M-by-M product of the paper's kernel
      const OpTally ops = O::fma() * (std::int64_t(M) * M * M);
      dev.launch_tiled(
          stage::QWYT, ceil_div(M * M, n), n, ops,
          3 * std::int64_t(M) * M * esz, O::fma() * M,
          blas::block_count(M, par), [&](int task) {
            const auto blk = blas::block_range(M, par, task);
            blas::fused::gemm_nt<T>(Q.view(), YWT.view(), SCR.view(),
                                    blk.begin, blk.end, 0, M, 0, M);
          });
    }
    {  // Q += QWY
      const OpTally ops = O::add() * (std::int64_t(M) * M);
      dev.launch_tiled(stage::Q_plus_QWY, ceil_div(M * M, n), n, ops,
                       3 * std::int64_t(M) * M * esz, O::add(),
                       blas::block_count(M, par), [&](int task) {
                         const auto blk = blas::block_range(M, par, task);
                         blas::fused::ewise_add<T>(Q.view(), SCR.view(),
                                                   blk.begin, blk.end, 0, M);
                       });
    }

    // ---- stage 4: update the trailing columns of R (formula (15)) -------
    const int ce = r0 + n;
    const int tc = C - ce;  // trailing columns
    if (tc > 0) {
      {  // YWTC = YWT C over all M rows (rows above r0 contribute zeros);
         // one task per trailing-column block — the per-tile trailing
         // update of the task graph
        const OpTally ops = O::fma() * (std::int64_t(M) * M * tc);
        dev.launch_tiled(
            stage::YWTC, ceil_div(M * tc, n), n, ops,
            (std::int64_t(M) * M + 2 * std::int64_t(M) * tc) * esz,
            O::fma() * M, blas::block_count(tc, par), [&](int task) {
              const auto blk = blas::block_range(tc, par, task);
              blas::fused::gemm_nn<T>(YWT.view(), R.view(0, ce, M, tc),
                                      SCR.view(), 0, M, blk.begin, blk.end,
                                      0, M);
            });
      }
      {  // R += YWTC
        const OpTally ops = O::add() * (std::int64_t(M) * tc);
        dev.launch_tiled(
            stage::R_plus_YWTC, ceil_div(M * tc, n), n, ops,
            3 * std::int64_t(M) * tc * esz, O::add(),
            blas::block_count(tc, par), [&](int task) {
              const auto blk = blas::block_range(tc, par, task);
              blas::fused::ewise_add<T>(R.view(0, ce, M, tc), SCR.view(), 0,
                                        M, blk.begin, blk.end);
            });
      }
    }
  }
  return out;
}

// Shared host-boundary driver.  `a` must be non-null in functional mode
// and may be null in dry-run mode; M-by-C with C = NT*n, M >= C.  Stages
// A in and unstages Q and R out as explicit priced transfers — the same
// (2 M C + M M) element total the pre-resident pipeline declared.
template <class T>
QrFactors<T> blocked_qr_run(device::Device& dev, const blas::Matrix<T>* a,
                            int M, int C, int n) {
  const bool fn = dev.functional();
  assert(!fn || a != nullptr);
  QrFactors<T> out;
  if (fn) {
    device::Staged2D<T> sa = dev.stage(*a);
    StagedQr<T> f = blocked_qr_staged_run<T>(dev, &sa, M, C, n);
    out.q = dev.unstage(f.q);
    out.r = dev.unstage(f.r);
  } else {
    dev.price_staging<T>(M, C);
    blocked_qr_staged_run<T>(dev, nullptr, M, C, n);
    dev.price_staging<T>(M, M);
    dev.price_staging<T>(M, C);
  }
  return out;
}

// Functional entry point: factor a real matrix that exists on the host.
template <class T>
QrFactors<T> blocked_qr(device::Device& dev, const blas::Matrix<T>& a,
                        int tile) {
  check_qr_shape("blocked_qr", a.rows(), a.cols(), tile);
  return blocked_qr_run<T>(dev, &a, a.rows(), a.cols(), tile);
}

// Dry-run entry point: walk and price the schedule for given dimensions.
template <class T>
void blocked_qr_dry(device::Device& dev, int rows, int cols, int tile) {
  assert(dev.mode() == device::ExecMode::dry_run);
  check_qr_shape("blocked_qr_dry", rows, cols, tile);
  blocked_qr_run<T>(dev, nullptr, rows, cols, tile);
}

}  // namespace mdlsq::core
