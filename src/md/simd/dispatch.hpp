// Runtime ISA dispatch for the fused multiple-double kernels (DESIGN.md
// §9).
//
// The shipped binary is compiled for the baseline architecture; the wide
// kernels live in per-ISA translation units built with target-scoped
// flags (CMakeLists.txt), and ONE of them is selected at startup from
// CPUID-backed feature tests (__builtin_cpu_supports on x86-64, which
// also verifies OS vector-state support via XGETBV; NEON is
// architectural on aarch64).  Every entry of every table computes
// bit-identical results — the fused kernels run a fixed per-element
// sequence of elementwise IEEE operations — so the selection is purely a
// speed decision, pinned by tests/test_simd_planes.
//
// force_isa()/clear_forced() pin the table for tests and for the
// bench_suite simd cases (forced-scalar wall / forced-ISA wall is the
// simd_speedup the CI gate floors).  The MDLSQ_SIMD environment variable
// ("scalar", "neon", "avx2", "avx512") caps the detected tier at process
// start — useful for triage; unknown or unsupported values are ignored.
#pragma once

#include <cstddef>
#include <vector>

namespace mdlsq::md::simd {

enum class Isa : int { scalar = 0, neon = 1, avx2 = 2, avx512 = 3 };

constexpr const char* name_of(Isa i) noexcept {
  switch (i) {
    case Isa::scalar: return "scalar";
    case Isa::neon: return "neon";
    case Isa::avx2: return "avx2";
    case Isa::avx512: return "avx512";
  }
  return "?";
}

// The limb counts the fused family is compiled for: one kernel set per
// count, in every table.  core/limb_dispatch.hpp static_asserts that the
// engine's instantiation list (core::SupportedLimbs) names no count
// outside it, so a real blocked QR at any supported precision has its
// fused kernels.
inline constexpr int kFusedLimbs[] = {1, 2, 3, 4, 5, 6, 8, 16};
inline constexpr int kMaxFusedLimbs = 16;

constexpr bool fused_limbs(int n) noexcept {
  for (int k : kFusedLimbs)
    if (k == n) return true;
  return false;
}

// A window of limb-planar storage (device::Staged2D's layout): limb s of
// element (i, j) sits at origin[s * plane + i * ld + j].  A column
// vector is a one-column window (element t at row t), a row vector a
// one-row window (element c at column c).
template <class D>
struct PlanesOf {
  D* origin = nullptr;
  std::size_t plane = 0;  // doubles between consecutive limb planes
  std::size_t ld = 0;     // doubles between consecutive rows

  D* at(int s, int i, int j) const noexcept {
    return origin + std::size_t(s) * plane + std::size_t(i) * ld +
           std::size_t(j);
  }
  operator PlanesOf<const D>() const noexcept { return {origin, plane, ld}; }
};
using Planes = PlanesOf<double>;
using CPlanes = PlanesOf<const double>;

// One fully-bound kernel set for one limb count N: the fused N-limb
// panel/update bodies of the blocked QR over limb planes.  All index
// ranges are half-open.  The fused kernels execute NO md operators and
// touch NO tally: callers report the bulk op count (blas/fused.hpp).
struct LimbKernels {
  // w(0, c) = (sum_t v(t, 0) * a(t, c)) * beta for c in [c0, c1), dots in
  // ascending t order; beta is N contiguous limbs.
  void (*col_dots)(CPlanes a, int rows, int c0, int c1, CPlanes v,
                   const double* beta, Planes w) = nullptr;
  // a(t, c) -= v(t, 0) * w(0, c) for c in [c0, c1) — the Householder
  // apply.
  void (*rank1)(Planes a, int rows, int c0, int c1, CPlanes v,
                CPlanes w) = nullptr;
  // c(i, j) = sum_t a(i, t) * b(j, t) (b transposed), ascending t.
  void (*gemm_nt)(CPlanes a, CPlanes b, Planes c, int i0, int i1, int j0,
                  int j1, int t0, int t1) = nullptr;
  // c(i, j) = sum_t a(i, t) * b(t, j), ascending t.
  void (*gemm_nn)(CPlanes a, CPlanes b, Planes c, int i0, int i1, int j0,
                  int j1, int t0, int t1) = nullptr;
  // c(i, j) += s(i, j) over the window [i0,i1) x [j0,j1).
  void (*ewise_add)(Planes c, CPlanes s, int i0, int i1, int j0,
                    int j1) = nullptr;
  // s -= a(0, t) * b(0, t) for t in [0, n), ascending — one dependency
  // chain (back substitution's per-row update), so every table runs it
  // on the scalar sequence; s is N contiguous limbs.
  void (*fms_chain)(double* s, CPlanes a, CPlanes b, int n) = nullptr;
};

// One ISA's table: a LimbKernels set per count of kFusedLimbs (the
// other slots stay null).
struct KernelTable {
  Isa isa = Isa::scalar;
  LimbKernels by_limbs[kMaxFusedLimbs + 1] = {};

  const LimbKernels& limbs(int n) const noexcept { return by_limbs[n]; }
};

// The active table: the forced one if a force is live, otherwise the
// best supported tier (detected once, cached).  Never null.
const KernelTable& active() noexcept;
Isa active_isa() noexcept;

// Every table compiled into this binary AND supported by this host,
// best first; always ends with Isa::scalar.
std::vector<Isa> supported_isas();

// The table for one ISA, or nullptr when it is not compiled in or the
// host cannot run it.
const KernelTable* table_for(Isa isa) noexcept;

// Pin the active table (tests, bench ablations).  Returns false (and
// changes nothing) when the ISA is unavailable on this host.
bool force_isa(Isa isa) noexcept;
void clear_forced() noexcept;

}  // namespace mdlsq::md::simd
