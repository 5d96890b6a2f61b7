// Width-templated IEEE-754 vector backends for the dispatched fused
// multiple-double kernels (DESIGN.md §9).
//
// Each backend names the next narrower backend (`tail`) the kernels hand
// their leftover columns to, ending at VScalar, and exposes the same tiny
// algebra — load/store, broadcast,
// strided gather, add/sub/mul, correctly-rounded fma, exact negation,
// and the exact per-lane zero test and select the N-limb renormalization
// skips zero terms with — over a register of V::width doubles.  Every
// operation is ELEMENTWISE
// and IEEE-correctly-rounded, which is the whole bit-identity argument:
// a lane of a vector op computes exactly what the scalar op computes on
// that lane's element, so the same per-element operation sequence yields
// the same bits at every width.  Nothing here may introduce a
// value-changing shortcut (no reciprocal approximations, no FTZ/DAZ, no
// reassociation); negation is a sign-bit flip (xor), NOT 0 - x, so the
// sign of zero survives.  nonzero() is the unordered x != 0 of C++ (a NaN
// lane counts as nonzero, -0.0 as zero) and select() moves whole lanes,
// so neither rounds anything.
//
// This header is included by per-ISA translation units that CMake
// compiles with the matching target flags (-mavx2 -mfma, -mavx512f,
// ...), so each wide backend is guarded by the macro its TU enables and
// is simply absent elsewhere.  All kernel TUs are compiled with
// -ffp-contract=off: the scalar backend (and the scalar tails inside
// wide TUs) must never have a mul+add pair contracted into an fma behind
// our back, or the "same sequence" invariant breaks between TUs.
//
// The scalar backend routes fma through std::fma — correctly rounded by
// the C standard, hardware-dispatched by glibc's ifunc resolver where
// the CPU has the instruction — so it stays bit-identical to the
// vfmadd/vfmaq lanes of the wide backends on the full double range,
// subnormals and non-finite values included.
#pragma once

#include <cmath>
#include <cstddef>

#if defined(__AVX2__) || defined(__AVX512F__)
#include <immintrin.h>
#endif
#if defined(__ARM_NEON)
#include <arm_neon.h>
#endif

namespace mdlsq::md::simd {

struct VScalar {
  static constexpr int width = 1;
  using reg = double;
  using tail = VScalar;  // the next narrower backend (none below scalar)
  static reg load(const double* p) noexcept { return *p; }
  static void store(double* p, reg v) noexcept { *p = v; }
  static reg set1(double x) noexcept { return x; }
  static reg load_stride(const double* p, std::size_t) noexcept { return *p; }
  static reg add(reg a, reg b) noexcept { return a + b; }
  static reg sub(reg a, reg b) noexcept { return a - b; }
  static reg mul(reg a, reg b) noexcept { return a * b; }
  static reg fma(reg a, reg b, reg c) noexcept { return std::fma(a, b, c); }
  static reg neg(reg a) noexcept { return -a; }  // sign flip, exact
  using mask = bool;
  static mask nonzero(reg a) noexcept { return a != 0.0; }
  static reg select(mask m, reg a, reg b) noexcept { return m ? a : b; }
};

#if defined(__AVX2__) && defined(__FMA__)
struct VAvx2 {
  static constexpr int width = 4;
  using reg = __m256d;
  using tail = VScalar;
  static reg load(const double* p) noexcept { return _mm256_loadu_pd(p); }
  static void store(double* p, reg v) noexcept { _mm256_storeu_pd(p, v); }
  static reg set1(double x) noexcept { return _mm256_set1_pd(x); }
  static reg load_stride(const double* p, std::size_t s) noexcept {
    return _mm256_setr_pd(p[0], p[s], p[2 * s], p[3 * s]);
  }
  static reg add(reg a, reg b) noexcept { return _mm256_add_pd(a, b); }
  static reg sub(reg a, reg b) noexcept { return _mm256_sub_pd(a, b); }
  static reg mul(reg a, reg b) noexcept { return _mm256_mul_pd(a, b); }
  static reg fma(reg a, reg b, reg c) noexcept {
    return _mm256_fmadd_pd(a, b, c);
  }
  static reg neg(reg a) noexcept {
    return _mm256_xor_pd(a, _mm256_set1_pd(-0.0));
  }
  using mask = __m256d;
  static mask nonzero(reg a) noexcept {
    return _mm256_cmp_pd(a, _mm256_setzero_pd(), _CMP_NEQ_UQ);
  }
  static reg select(mask m, reg a, reg b) noexcept {
    return _mm256_blendv_pd(b, a, m);
  }
};
#endif

#if defined(__AVX512F__)
struct VAvx512 {
  static constexpr int width = 8;
  using reg = __m512d;
  using tail = VAvx2;  // -mavx512f -mfma also enables AVX2 + FMA
  static reg load(const double* p) noexcept { return _mm512_loadu_pd(p); }
  static void store(double* p, reg v) noexcept { _mm512_storeu_pd(p, v); }
  static reg set1(double x) noexcept { return _mm512_set1_pd(x); }
  static reg load_stride(const double* p, std::size_t s) noexcept {
    return _mm512_setr_pd(p[0], p[s], p[2 * s], p[3 * s], p[4 * s], p[5 * s],
                          p[6 * s], p[7 * s]);
  }
  static reg add(reg a, reg b) noexcept { return _mm512_add_pd(a, b); }
  static reg sub(reg a, reg b) noexcept { return _mm512_sub_pd(a, b); }
  static reg mul(reg a, reg b) noexcept { return _mm512_mul_pd(a, b); }
  static reg fma(reg a, reg b, reg c) noexcept {
    return _mm512_fmadd_pd(a, b, c);
  }
  static reg neg(reg a) noexcept {
    return _mm512_castsi512_pd(_mm512_xor_si512(
        _mm512_castpd_si512(a),
        _mm512_castpd_si512(_mm512_set1_pd(-0.0))));
  }
  using mask = __mmask8;
  static mask nonzero(reg a) noexcept {
    return _mm512_cmp_pd_mask(a, _mm512_setzero_pd(), _CMP_NEQ_UQ);
  }
  static reg select(mask m, reg a, reg b) noexcept {
    return _mm512_mask_blend_pd(m, b, a);
  }
};
#endif

#if defined(__ARM_NEON) && defined(__aarch64__)
struct VNeon {
  static constexpr int width = 2;
  using reg = float64x2_t;
  using tail = VScalar;
  static reg load(const double* p) noexcept { return vld1q_f64(p); }
  static void store(double* p, reg v) noexcept { vst1q_f64(p, v); }
  static reg set1(double x) noexcept { return vdupq_n_f64(x); }
  static reg load_stride(const double* p, std::size_t s) noexcept {
    return vcombine_f64(vld1_f64(p), vld1_f64(p + s));
  }
  static reg add(reg a, reg b) noexcept { return vaddq_f64(a, b); }
  static reg sub(reg a, reg b) noexcept { return vsubq_f64(a, b); }
  static reg mul(reg a, reg b) noexcept { return vmulq_f64(a, b); }
  static reg fma(reg a, reg b, reg c) noexcept { return vfmaq_f64(c, a, b); }
  static reg neg(reg a) noexcept { return vnegq_f64(a); }
  using mask = uint64x2_t;
  static mask nonzero(reg a) noexcept {  // NOT (a == 0): NaN is nonzero
    return vreinterpretq_u64_u32(
        vmvnq_u32(vreinterpretq_u32_u64(vceqzq_f64(a))));
  }
  static reg select(mask m, reg a, reg b) noexcept {
    return vbslq_f64(m, a, b);
  }
};
#endif

}  // namespace mdlsq::md::simd
