// Lower triangular block Toeplitz solver for power-series linear systems —
// the paper's motivating substrate (Section 1.1, after Bliss & Verschelde
// and Telen, Van Barel & Verschelde): computing the Taylor coefficients
// x_0, x_1, ..., x_K of the solution path of A(t) x(t) = b(t) reduces to
//
//     | T_0               | | x_0 |   | b_0 |
//     | T_1  T_0          | | x_1 | = | b_1 |
//     | ...       ...     | | ... |   | ... |
//     | T_K  ...  T_1 T_0 | | x_K |   | b_K |
//
// where T_0 is the Jacobian at the current point.  The diagonal block is
// factored ONCE (QR, the expensive O(m^3) step); every series order then
// costs one convolution update plus one triangular solve.  Round-off in
// the convolution accumulates with the order, which is exactly the error
// amplification that motivates multiple double precision in the paper.
//
// The factorization runs through the blocked pipeline of
// core/blocked_qr.hpp on a functional device, and every series order
// issues priced launches (a tiled convolution update plus the
// factor-reusing correction solve of core/refinement.hpp), so the path
// tracker's schedule is walked identically in functional and dry-run
// modes.  The factors stay resident as one core::ResidentQr, which every
// diagonal solve and the tracker's condition estimate read in place, so
// a Newton corrector can keep refining against them instead of
// refactorizing per step — the tracker's escalation currency
// (src/path/tracker.hpp).  No factor returns to the host: the transfers
// priced are the diagonal block in, and per diagonal solve the residual
// in and the correction out.  The solver keeps only what the series solve
// reads: the resident factors of T_0 and staged copies of T_1..T_{band-1}
// (T_0 itself is staged once, for the QR).
//
// For a real mdreal<N> the convolution runs the fused N-limb kernels of
// blas/fused.hpp (DESIGN.md §9) on one-row limb planes of r, x and each
// product: T_j x_{k-j} by fused::gemm_nt (lanes across the task's rows),
// then r -= T_j x_{k-j} for j ascending; the diagonal solve is the fused
// correction solve.  Complex scalars run the same orders on the
// accessor-generic dots and mdreal operators.
//
// Input validation follows the thrown-error convention of core/: invalid
// shapes raise std::invalid_argument (asserts would vanish under NDEBUG
// while this class sits on the service path of the tracking subsystem).
#pragma once

#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "blas/fused.hpp"
#include "blas/gemm.hpp"
#include "core/blocked_qr.hpp"
#include "core/refinement.hpp"

namespace mdlsq::core {

namespace stage {
inline constexpr const char* toeplitz_conv = "toeplitz conv";
}

template <class T>
class BlockToeplitzSolver {
 public:
  // blocks[j] is T_j (all m-by-m); blocks[0] must be nonsingular.  T_0
  // is staged (explicit priced transfer) and goes through the
  // staged-resident blocked QR pipeline on `dev` (functional mode), so
  // the O(m^3) step is launched, tallied and timed like every other
  // kernel; the factors it leaves resident are kept as they are
  // (DESIGN.md §8).  `tile` must divide the block dimension (the
  // pipeline's tiling contract).
  BlockToeplitzSolver(device::Device& dev, std::vector<blas::Matrix<T>> blocks,
                      int tile)
      : m_(validate_blocks(blocks)),
        band_(static_cast<int>(blocks.size())) {
    if (!dev.functional())
      throw std::invalid_argument(
          "mdlsq: BlockToeplitzSolver device factorization requires a "
          "functional device (price dry schedules with factor_dry)");
    validate_tile(m_, tile);
    auto sa = dev.stage(blocks[0]);
    resident_ = ResidentQr<T>::from_staged(
        blocked_qr_staged_run<T>(dev, &sa, m_, m_, tile), m_);
    // The band blocks the series solve's convolution launches read (a
    // host-side structural copy, like all staging conversions).
    band_blocks_.reserve(blocks.size() - 1);
    for (std::size_t j = 1; j < blocks.size(); ++j)
      band_blocks_.push_back(device::Staged2D<T>::from_host(blocks[j]));
  }

  // Dry-run price of the factorization for an m-by-m diagonal block:
  // T_0 in, then the blocked QR's launches.
  static void factor_dry(device::Device& dev, int m, int tile) {
    validate_tile(m, tile);
    dev.price_staging<T>(m, m);
    blocked_qr_staged_run<T>(dev, nullptr, m, m, tile);
  }

  int block_dim() const noexcept { return m_; }
  int bandwidth() const noexcept { return band_; }

  // The resident factors of T_0 (the path tracker's condition estimate
  // reads their triangle).
  const ResidentQr<T>& resident() const noexcept { return resident_; }

  // Device-priced diagonal solve on the cached factors: the factor-
  // reusing correction solve of core/refinement.hpp on the resident
  // factors (limb-identical to least_squares_with_factors on the same
  // factors on the host; the staged conformance suite pins it).
  blas::Vector<T> solve_diag_on(device::Device& dev, std::span<const T> r,
                                int tile) const {
    validate_rhs_length(r.size());
    return resident_.solve_on(dev, r, tile);
  }

  // Device-priced series solve: per order one tiled convolution launch
  // (orders beyond the bandwidth convolve only the stored blocks) plus
  // one factor-reusing diagonal solve.  Functional mode; the dry price of
  // the identical schedule is solve_series_dry.
  std::vector<blas::Vector<T>> solve_on(
      device::Device& dev, const std::vector<blas::Vector<T>>& rhs,
      int tile) const {
    validate_rhs(rhs);
    return solve_series_run(dev, this, &rhs, block_dim(), bandwidth(),
                            static_cast<int>(rhs.size()), tile);
  }

  // Dry-run price of a series solve of `orders` coefficients with block
  // dimension m and the given bandwidth.
  static void solve_series_dry(device::Device& dev, int m, int band,
                               int orders, int tile) {
    solve_series_run(dev, nullptr, nullptr, m, band, orders, tile);
  }

 private:
  // Shared driver of the device-priced series solve; `self`/`rhs` are
  // null in dry-run mode, where only the dimensions walk the schedule.
  static std::vector<blas::Vector<T>> solve_series_run(
      device::Device& dev, const BlockToeplitzSolver* self,
      const std::vector<blas::Vector<T>>* rhs, int m, int band, int orders,
      int tile) {
    using O = ops_of<T>;
    const bool fn = dev.functional();
    if (fn && (self == nullptr || rhs == nullptr))
      throw std::invalid_argument(
          "mdlsq: functional series solve needs data");
    const std::int64_t esz = 8 * blas::scalar_traits<T>::doubles_per_element;
    const int par = dev.parallelism();

    // Functional mode keeps the solved orders, the running right-hand
    // side and each product T_j x_{k-j} as one-row limb planes: the form
    // the fused kernels read and write (blas/fused.hpp).
    std::vector<blas::Vector<T>> x;
    device::Staged2D<T> xs, rs, ss;
    if (fn) {
      x.reserve(static_cast<std::size_t>(orders));
      xs = device::Staged2D<T>(orders, m);
      rs = device::Staged2D<T>(1, m);
      ss = device::Staged2D<T>(1, m);
    }
    for (int k = 0; k < orders; ++k) {
      const int j_max = std::min(k, band - 1);
      if (fn)
        for (int i = 0; i < m; ++i)
          rs.set(0, i, (*rhs)[static_cast<std::size_t>(k)][i]);
      if (j_max > 0) {
        // r -= T_j x_{k-j} for j = 1..j_max in ascending order: each task
        // owns a contiguous row block of r; every row's dot products
        // reduce in fixed ascending order inside one task (bit-identical
        // at any width).  Real scalars run fused::gemm_nt with lanes
        // across the task's rows; complex ones the accessor-generic dots.
        const std::int64_t jm = j_max;
        const md::OpTally ops =
            O::fma() * (jm * m * m) + O::sub() * (jm * m);
        const md::OpTally serial =
            O::fma() * (jm * ceil_div(m, tile)) + O::sub() * jm;
        dev.launch_tiled(
            stage::toeplitz_conv, m, tile, ops,
            (jm * std::int64_t(m) * m + 2 * std::int64_t(m)) * esz, serial,
            blas::block_count(m, par), [&](int task) {
              const auto blk = blas::block_range(m, par, task);
              const auto rv = rs.view(), sv = ss.view();
              for (int j = 1; j <= j_max; ++j) {
                // T_j at band_blocks_[j - 1], read in place.
                const auto tj =
                    self->band_blocks_[static_cast<std::size_t>(j - 1)]
                        .view();
                const auto xj = xs.view(k - j, 0, 1, m);
                if constexpr (blas::scalar_traits<T>::is_complex)
                  blas::gemm_block<T>(
                      blk.begin, blk.end, 0, 1, 0, m,
                      [&](int i, int c) { return tj.get(i, c); },
                      [&](int c, int) { return xj.get(0, c); },
                      [&](int i, int, const T& s) { sv.set(0, i, s); });
                else
                  blas::fused::gemm_nt(xj, tj, sv, 0, 1, blk.begin, blk.end,
                                       0, m);
                blas::fused::ewise_sub(rv, sv, 0, 1, blk.begin, blk.end);
              }
            });
      }
      if (fn) {
        blas::Vector<T> r(static_cast<std::size_t>(m));
        for (int i = 0; i < m; ++i) r[i] = rs.get(0, i);
        x.push_back(self->resident_.solve_on(dev, r, tile));
        for (int i = 0; i < m; ++i) xs.set(k, i, x.back()[i]);
      } else {
        correction_solve_dry<T>(dev, m, m, tile);
      }
    }
    return x;
  }

  // Returns the block dimension.
  static int validate_blocks(const std::vector<blas::Matrix<T>>& blocks) {
    if (blocks.empty())
      throw std::invalid_argument(
          "mdlsq: BlockToeplitzSolver needs at least the diagonal block");
    const int m = blocks[0].rows();
    if (m < 1)
      throw std::invalid_argument(
          "mdlsq: BlockToeplitzSolver blocks must be nonempty");
    for (const auto& blk : blocks)
      if (blk.rows() != m || blk.cols() != m)
        throw std::invalid_argument(
            "mdlsq: BlockToeplitzSolver blocks must all be " +
            std::to_string(m) + "-by-" + std::to_string(m));
    return m;
  }

  static void validate_tile(int m, int tile) {
    if (tile < 1 || m % tile != 0)
      throw std::invalid_argument(
          "mdlsq: BlockToeplitzSolver tile must divide the block "
          "dimension");
  }

  void validate_rhs_length(std::size_t n) const {
    if (static_cast<int>(n) != block_dim())
      throw std::invalid_argument(
          "mdlsq: BlockToeplitzSolver rhs length must equal the block "
          "dimension");
  }

  void validate_rhs(const std::vector<blas::Vector<T>>& rhs) const {
    for (const auto& b : rhs) validate_rhs_length(b.size());
  }

  int m_;
  int band_;
  ResidentQr<T> resident_;
  std::vector<device::Staged2D<T>> band_blocks_;  // T_1..T_{band-1}
};

}  // namespace mdlsq::core
