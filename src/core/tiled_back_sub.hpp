// Tiled accelerated back substitution — Algorithm 1 of the paper.
//
// The NT*n-by-NT*n upper triangular matrix U is tiled into NT diagonal
// tiles of size n.  Stage 1 inverts every diagonal tile in one launch of
// NT blocks of n threads (thread k of block i solves U_i v = e_k, one
// column of the inverse, independently).  Stage 2 walks the tiles bottom
// up: "multiply with inverses" computes x_i = U_i^{-1} b_i with one block
// of n threads, then "back substitution" updates all b_j (j < i)
// simultaneously with i blocks of n threads.
//
// Note on launch counts: the paper states Algorithm 1 executes
// 1 + N(N+1)/2 launches (one per right-hand-side update), but also says
// the updates of step i run "simultaneously ... with i-1 blocks".  We
// realize each step's updates as ONE launch of i blocks — the
// concurrently-scheduled wave — which is what the reported timings imply;
// the bench harness prints the paper's launch formula alongside.
// Stage names match the row legend of the paper's Tables 7-9.
//
// Staged-resident execution (DESIGN.md §8): the driver
// tiled_back_sub_staged_run works IN PLACE on staged storage — U's
// diagonal tiles are overwritten by their inverses (the paper's
// registers-to-global write-back) and the staged right-hand side becomes
// the solution — so a pipeline that already holds R and y resident (the
// least-squares solver) chains into it without a host round trip.  The
// tile inversion body is blas::invert_upper_tile.
// The host entry points wrap the driver in explicit priced
// stage()/unstage() transfers, with totals unchanged from the
// pre-resident code.
//
// Host execution engine (DESIGN.md §5): the diagonal-tile inversions are
// independent, and within one diagonal step i every row block j < i of
// the update wave owns a disjoint slice of the right-hand side, so both
// launches fan out as tile tasks on the Device's thread pool
// (launch_tiled) and really run concurrently on the host — bit-identical
// to the sequential walk at every parallelism width.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/matrix.hpp"
#include "blas/panel.hpp"
#include "core/tally_rules.hpp"
#include "device/launch.hpp"
#include "device/staged.hpp"

namespace mdlsq::core {

namespace stage {
inline constexpr const char* bs_invert = "invert diagonal tiles";
inline constexpr const char* bs_multiply = "multiply with inverses";
inline constexpr const char* bs_update = "back substitution";
}  // namespace stage

// The paper's stated launch count for Algorithm 1.
inline constexpr std::int64_t bs_paper_launches(int nt) noexcept {
  return 1 + std::int64_t(nt) * (nt + 1) / 2;
}

// The tiling contract of the back-substitution entry points: at least one
// tile of at least one row.  Checked before any staging or launch
// (std::invalid_argument, kept under NDEBUG).
inline void check_bs_tiling(const char* who, int tiles, int tile_size) {
  if (tiles < 1 || tile_size < 1)
    throw std::invalid_argument(std::string("mdlsq: ") + who +
                                ": tile count and tile size must be >= 1");
}

// Staged-resident driver: solves U x = b in place — on entry `x` holds
// the staged right-hand side, on return the solution; `u`'s diagonal
// tiles are replaced by their inverses.  Both non-null in functional
// mode, null in dry-run mode.  Launch schedule only; the caller owns the
// stage()/unstage() transfer pricing.
template <class T>
void tiled_back_sub_staged_run(device::Device& dev, device::Staged2D<T>* u,
                               device::Staged1D<T>* x, int nt, int n) {
  using traits = blas::scalar_traits<T>;
  using O = ops_of<T>;
  using md::OpTally;

  assert(nt >= 1 && n >= 1);
  const int dim = nt * n;
  const bool fn = dev.functional();
  if (fn && (u == nullptr || x == nullptr || u->rows() != dim ||
             u->cols() != dim || x->size() != dim))
    throw std::invalid_argument(
        "mdlsq: tiled_back_sub staged operands must be NT*n square and "
        "matching");
  const std::int64_t esz = 8 * traits::doubles_per_element;
  const int par = dev.parallelism();

  {  // stage 1: invert all diagonal tiles in place
    // Per inverse column k: one division for the pivot, then for each row
    // j < k a dot of length k-j and a division.
    const std::int64_t fma_tile = std::int64_t(n) * (n - 1) * (n + 1) / 6;
    const std::int64_t div_tile = std::int64_t(n) * (n + 1) / 2;
    const OpTally ops =
        O::fma() * (fma_tile * nt) + O::div() * (div_tile * nt);
    const OpTally serial =  // the last column dominates a thread's work
        O::fma() * (std::int64_t(n) * (n - 1) / 2) + O::div() * n;
    dev.launch_tiled(
        stage::bs_invert, nt, n, ops, 2 * std::int64_t(nt) * n * n * esz,
        serial, blas::block_count(nt, par), [&](int task) {
          const auto blk = blas::block_range(nt, par, task);
          std::vector<T> vinv(std::size_t(n) * n);
          for (int tile = blk.begin; tile < blk.end; ++tile) {
            const int d = tile * n;
            const auto ut = u->view(d, d, n, n);
            // Solve U_i v = e_k per column k (thread k).
            blas::invert_upper_tile<T>(ut, std::span<T>(vinv));
            // Replace the tile with its inverse (registers -> global).
            for (int i = 0; i < n; ++i)
              for (int j = 0; j < n; ++j)
                ut.set(i, j, vinv[std::size_t(i) * n + j]);
          }
        });
  }

  // stage 2: bottom-up traversal
  std::vector<T> xi(n);
  for (int i = nt - 1; i >= 0; --i) {
    const int d = i * n;
    {  // x_i = U_i^{-1} b_i
      const OpTally ops = O::fma() * (std::int64_t(n) * n);
      dev.launch(stage::bs_multiply, 1, n, ops,
                 (std::int64_t(n) * n + 2 * n) * esz, O::fma() * n, [&] {
                   blas::gemv_rows<T>(
                       u->view(d, d, n, n),
                       [&](int t) { return x->get(d + t); },
                       [&](int r, const T& s) { xi[std::size_t(r)] = s; });
                   for (int r = 0; r < n; ++r) x->set(d + r, xi[r]);
                 });
    }
    if (i > 0) {  // b_j -= A_{j,i} x_i for all j < i, one concurrent wave:
                  // row block j owns X[j*n, (j+1)*n) exclusively, so the
                  // wave fans out as independent tile tasks
      const OpTally ops =
          (O::fma() * n + O::sub()) * (std::int64_t(i) * n);
      const OpTally serial = O::fma() * n + O::sub();
      dev.launch_tiled(
          stage::bs_update, i, n, ops,
          (std::int64_t(i) * n * n + 2 * std::int64_t(i) * n + n) * esz,
          serial, blas::block_count(i, par), [&](int task) {
            const auto blk = blas::block_range(i, par, task);
            for (int j = blk.begin; j < blk.end; ++j)
              for (int r = 0; r < n; ++r) {
                T s{};
                for (int t = 0; t < n; ++t)
                  s += u->get(j * n + r, d + t) * x->get(d + t);
                x->set(j * n + r, x->get(j * n + r) - s);
              }
          });
    }
  }
}

// Shared host-boundary driver; `u` and `b` non-null in functional mode.
// Stages U and b in and unstages x out — the (dim^2 + 2 dim) element
// total the pre-resident pipeline declared.
template <class T>
blas::Vector<T> tiled_back_sub_run(device::Device& dev,
                                   const blas::Matrix<T>* u,
                                   const blas::Vector<T>* b, int nt, int n) {
  const int dim = nt * n;
  const bool fn = dev.functional();
  assert(!fn || (u != nullptr && b != nullptr &&
                 u->rows() == dim && u->cols() == dim &&
                 static_cast<int>(b->size()) == dim));
  if (fn) {
    device::Staged2D<T> su = dev.stage(*u);
    device::Staged1D<T> sx = dev.stage(*b);
    tiled_back_sub_staged_run<T>(dev, &su, &sx, nt, n);
    return dev.unstage(sx);
  }
  dev.price_staging<T>(dim, dim);
  dev.price_staging<T>(dim, 1);
  tiled_back_sub_staged_run<T>(dev, nullptr, nullptr, nt, n);
  dev.price_staging<T>(dim, 1);
  return {};
}

// Functional entry point: solve U x = b.
template <class T>
blas::Vector<T> tiled_back_sub(device::Device& dev, const blas::Matrix<T>& u,
                               const blas::Vector<T>& b, int tiles,
                               int tile_size) {
  check_bs_tiling("tiled_back_sub", tiles, tile_size);
  const std::int64_t dim = std::int64_t(tiles) * tile_size;
  if (u.rows() != dim || u.cols() != dim)
    throw std::invalid_argument(
        "mdlsq: tiled_back_sub: U must be (tiles * tile_size)-square");
  if (static_cast<std::int64_t>(b.size()) != dim)
    throw std::invalid_argument(
        "mdlsq: tiled_back_sub: right-hand side length must equal the row "
        "count");
  return tiled_back_sub_run<T>(dev, &u, &b, tiles, tile_size);
}

// Dry-run entry point.
template <class T>
void tiled_back_sub_dry(device::Device& dev, int tiles, int tile_size) {
  assert(dev.mode() == device::ExecMode::dry_run);
  check_bs_tiling("tiled_back_sub_dry", tiles, tile_size);
  tiled_back_sub_run<T>(dev, nullptr, nullptr, tiles, tile_size);
}

}  // namespace mdlsq::core
