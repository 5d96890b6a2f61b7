// StagedView: the non-owning accessor that makes limb-planar (staged)
// storage a first-class kernel substrate (DESIGN.md §8).
//
// A staged matrix keeps limb s of every element in one contiguous plane
// of doubles (device/staged.hpp).  StagedView addresses a rectangular
// window of such storage through a get/set element interface, which the
// accessor-generic kernels — gemm_block, the panel kernels of
// blas/panel.hpp, the task-graph bodies of the blocked QR and the tiled
// back substitution — are written against.  Views are cheap (a pointer,
// a stride and four ints), are passed by value into launch bodies, and
// never allocate; writing through a view mutates the staged buffer it
// windows, which is what keeps intermediate pipeline results
// device-resident across launches.
//
// Element access gathers the limbs of one element from the planes (the
// device's per-thread register load: adjacent elements are adjacent in
// every plane, i.e. coalesced); row_segment exposes the contiguous
// per-plane span of a row window so structural operations (zero fills,
// triangle extraction, staging) can run plane-contiguously through
// md::planes instead of element-by-element; limb_planes() hands the fused
// kernels (blas/fused.hpp) the raw window of a real scalar's planes.
//
// Shape arguments are validated with thrown std::invalid_argument
// (core/'s convention); per-element indices stay asserts — they sit on
// the innermost kernel loops.
#pragma once

#include <cassert>
#include <cstddef>
#include <span>
#include <stdexcept>

#include "blas/scalar.hpp"
#include "md/simd/dispatch.hpp"

namespace mdlsq::blas {

template <class T>
class StagedView {
  using traits = scalar_traits<T>;
  static constexpr int kLimbs = traits::limbs;

 public:
  static constexpr int planes = traits::doubles_per_element;

  StagedView() = default;
  // A window of `rows` x `cols` elements at offset (r0, c0) of a parent
  // staged buffer: `d` is the parent's plane-0 origin, `plane` its
  // doubles-per-plane count, `ld` its leading dimension (columns).
  StagedView(double* d, std::size_t plane, int ld, int r0, int c0, int rows,
             int cols)
      : d_(d), plane_(plane), ld_(ld), r0_(r0), c0_(c0), rows_(rows),
        cols_(cols) {
    if (rows < 0 || cols < 0 || r0 < 0 || c0 < 0 || ld < 0 ||
        c0 + cols > ld ||
        (rows > 0 && cols > 0 &&
         static_cast<std::size_t>(r0 + rows - 1) * ld + (c0 + cols) > plane))
      throw std::invalid_argument(
          "mdlsq: StagedView window exceeds its parent staged buffer");
  }

  int rows() const noexcept { return rows_; }
  int cols() const noexcept { return cols_; }

  T get(int i, int j) const noexcept {
    const std::size_t at = idx(i, j);
    if constexpr (traits::is_complex) {
      T z;
      for (int s = 0; s < kLimbs; ++s) {
        z.re.set_limb(s, d_[s * plane_ + at]);
        z.im.set_limb(s, d_[(kLimbs + s) * plane_ + at]);
      }
      return z;
    } else {
      T x;
      for (int s = 0; s < kLimbs; ++s) x.set_limb(s, d_[s * plane_ + at]);
      return x;
    }
  }

  void set(int i, int j, const T& v) const noexcept {
    const std::size_t at = idx(i, j);
    if constexpr (traits::is_complex) {
      for (int s = 0; s < kLimbs; ++s) {
        d_[s * plane_ + at] = v.re.limb(s);
        d_[(kLimbs + s) * plane_ + at] = v.im.limb(s);
      }
    } else {
      for (int s = 0; s < kLimbs; ++s) d_[s * plane_ + at] = v.limb(s);
    }
  }

  // The raw limb planes of the window, for the fused kernels of
  // blas/fused.hpp: limb s of element (i, j) at
  // origin[s * plane + i * ld + j].  Real scalars only.
  md::simd::Planes limb_planes() const noexcept {
    static_assert(!traits::is_complex,
                  "the fused kernels run on real limb planes only");
    return {d_ + static_cast<std::size_t>(r0_) * ld_ + c0_, plane_,
            static_cast<std::size_t>(ld_)};
  }

  // A sub-window, in this view's coordinates.
  StagedView block(int i0, int j0, int rows, int cols) const {
    if (i0 < 0 || j0 < 0 || rows < 0 || cols < 0 || i0 + rows > rows_ ||
        j0 + cols > cols_)
      throw std::invalid_argument(
          "mdlsq: StagedView block exceeds the view");
    return StagedView(d_, plane_, ld_, r0_ + i0, c0_ + j0, rows, cols);
  }

  // The contiguous doubles of stage plane s covering row i, columns
  // [j0, j0 + len): the plane-contiguous handle for md::planes kernels.
  // Planes [0, planes): real limbs first, then (complex only) imaginary.
  std::span<double> row_segment(int s, int i, int j0, int len) const {
    if (s < 0 || s >= planes || i < 0 || i >= rows_ || j0 < 0 || len < 0 ||
        j0 + len > cols_)
      throw std::invalid_argument(
          "mdlsq: StagedView row_segment out of range");
    return {d_ + s * plane_ + idx(i, j0), static_cast<std::size_t>(len)};
  }

 private:
  std::size_t idx(int i, int j) const noexcept {
    assert(i >= 0 && i < rows_ && j >= 0 && j < cols_);
    return static_cast<std::size_t>(r0_ + i) * ld_ + (c0_ + j);
  }

  double* d_ = nullptr;
  std::size_t plane_ = 0;
  int ld_ = 0;
  int r0_ = 0, c0_ = 0;
  int rows_ = 0, cols_ = 0;
};

}  // namespace mdlsq::blas
