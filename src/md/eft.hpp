// Error-free transforms: the double-precision building blocks of all
// multiple-double arithmetic.  Every function computes a floating-point
// result together with the *exact* rounding error, so that a sequence of
// doubles can represent a value to arbitrarily many bits.
//
// References: D. E. Knuth, TAOCP vol. 2 (two_sum); T. J. Dekker,
// "A floating-point technique for extending the available precision"
// (quick_two_sum, split); J. R. Shewchuk, "Adaptive precision
// floating-point arithmetic" (expansion algebra built on these).
#pragma once

#include <cmath>

namespace mdlsq::md {

// s = fl(a + b), e = (a + b) - s exactly.  No requirement on |a|, |b|.
// 6 double-precision operations (Knuth).
inline void two_sum(double a, double b, double& s, double& e) noexcept {
  s = a + b;
  const double bb = s - a;
  e = (a - (s - bb)) + (b - bb);
}

// s = fl(a + b), e exact; requires |a| >= |b| or a == 0.
// 3 double-precision operations (Dekker).
inline void quick_two_sum(double a, double b, double& s, double& e) noexcept {
  s = a + b;
  e = b - (s - a);
}

// Hardware-FMA gate for the scalar two_prod/two_sqr below.  On targets
// whose compile flags guarantee a fused multiply-add instruction
// (__FMA__ on x86 -mfma/-mavx2 builds, FP_FAST_FMA per the C standard,
// always on aarch64), std::fma inlines to that instruction and is the
// cheapest exact product error.  WITHOUT those flags — the baseline
// x86-64 build this repo ships — std::fma is a libm function CALL on the
// hot path (glibc dispatches to hardware via ifunc where present, but
// the call overhead alone dwarfs the 17-flop alternative), so we fall
// back to the Dekker/Veltkamp split instead.  The split is exact for all
// inputs whose product and split halves neither overflow nor enter the
// subnormal range (|a|, |b| < 2^996 and |a*b| >= 2^-1021 suffices) —
// the renormalized limbs of mdreal arithmetic live far inside that
// range.  Batched kernels never take this scalar path at all: the
// dispatched SIMD layer (md/simd/, the fused multiple-double kernels)
// always uses a true fused multiply-add, which is why ITS paths are
// bit-identical across ISAs on the full double range including
// subnormals.
#if defined(__FMA__) || defined(FP_FAST_FMA) || defined(__aarch64__)
#define MDLSQ_EFT_HAVE_FAST_FMA 1
#else
#define MDLSQ_EFT_HAVE_FAST_FMA 0
#endif

#if !MDLSQ_EFT_HAVE_FAST_FMA
// Veltkamp splitting: x = hi + lo exactly, each half on 26 bits.
inline void split(double x, double& hi, double& lo) noexcept {
  constexpr double kSplit = 134217729.0;  // 2^27 + 1
  const double t = kSplit * x;
  hi = t - (t - x);
  lo = x - hi;
}
#endif

// p = fl(a * b), e = a*b - p exactly.
inline void two_prod(double a, double b, double& p, double& e) noexcept {
  p = a * b;
#if MDLSQ_EFT_HAVE_FAST_FMA
  e = std::fma(a, b, -p);
#else
  double ah, al, bh, bl;
  split(a, ah, al);
  split(b, bh, bl);
  e = ((ah * bh - p) + ah * bl + al * bh) + al * bl;
#endif
}

// p = fl(a * a), e exact.
inline void two_sqr(double a, double& p, double& e) noexcept {
  p = a * a;
#if MDLSQ_EFT_HAVE_FAST_FMA
  e = std::fma(a, a, -p);
#else
  double ah, al;
  split(a, ah, al);
  e = ((ah * ah - p) + 2.0 * (ah * al)) + al * al;
#endif
}

// Three-way two_sum: s = fl(a+b+c) with the two error terms.
// On return s holds the leading part, e1 and e2 the roundoff.
inline void three_sum(double& a, double& b, double& c) noexcept {
  double t1, t2, t3;
  two_sum(a, b, t1, t2);
  two_sum(c, t1, a, t3);
  two_sum(t2, t3, b, c);
}

// Like three_sum but only two outputs are needed (error folded).
inline void three_sum2(double& a, double& b, double c) noexcept {
  double t1, t2, t3;
  two_sum(a, b, t1, t2);
  two_sum(c, t1, a, t3);
  b = t2 + t3;
}

}  // namespace mdlsq::md
