// Plane-wise structural primitives of the staged (limb-planar) memory
// layout of the paper's device kernels (PAPER.md, end of Section 2;
// DESIGN.md §8).
//
// A staged multiple-double array keeps limb s of every element in one
// contiguous plane of doubles.  The plane kernels here (fill, copy) move
// limbs across a whole contiguous std::span<double> plane — zero fills
// and triangle copies of staged buffers.  They execute *below* the
// Table 1 granularity of the cost model: they never call a
// multiple-double operator, so their exactly-declared tally is the EMPTY
// OpTally (tally() below), and using them inside a launch body never
// perturbs the measured-vs-analytic equality the suite asserts.
//
// Multiple-double operations on staged data go through blas::StagedView
// element access instead: limbs are gathered from the planes (the
// device's per-thread register load), the mdreal/mdcomplex operator
// executes (and reports itself to the thread-local tally as everywhere
// else), and the result limbs are scattered back — see
// blas/staged_view.hpp and the panel kernels of blas/panel.hpp.  The
// blocked QR's hot stages additionally have fused SIMD bodies at every
// real limb count (blas/fused.hpp) that keep limbs in registers across
// whole EFT chains.
#pragma once

#include <cstring>
#include <span>
#include <stdexcept>
#include <string>

#include "md/op_counts.hpp"

namespace mdlsq::md::planes {

namespace detail {
inline void require_same_size(std::size_t a, std::size_t b,
                              const char* what) {
  if (a != b)
    throw std::invalid_argument(std::string("mdlsq: planes::") + what +
                                " spans must have equal length");
}
}  // namespace detail

// The declared multiple-double tally of every plane kernel: empty.  A
// plane kernel is limb-level data movement; the Table 1 cost model
// prices multiple-double *operations*, and a plane kernel executes none.
constexpr OpTally tally() noexcept { return {}; }

inline void fill(std::span<double> x, double v) {
  for (double& d : x) d = v;
}

// memmove, not memcpy: staged in-place structural moves (triangle
// copies, plane shifts) may hand in overlapping spans, which memcpy
// makes undefined behavior.
inline void copy(std::span<const double> src, std::span<double> dst) {
  detail::require_same_size(src.size(), dst.size(), "copy");
  if (!src.empty())
    std::memmove(dst.data(), src.data(), src.size() * sizeof(double));
}

}  // namespace mdlsq::md::planes
