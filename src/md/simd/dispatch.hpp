// Runtime ISA dispatch for the fused double-double kernels (DESIGN.md
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

// One fully-bound kernel set: the fused double-double (2-limb)
// panel/update bodies over separate hi/lo limb planes addressed with a
// leading dimension (row stride in doubles).  All index ranges are
// half-open.  The fused kernels execute NO md operators and touch NO
// tally: callers report the bulk op count (blas/fused_dd.hpp).
struct KernelTable {
  Isa isa = Isa::scalar;

  // w[c] = (sum_t v[t] * A[t][c]) * beta for c in [c0, c1), dots in
  // ascending t order; A[t][c] at {a}hi/lo[t*lda + c].
  void (*dd_col_dots)(const double* ahi, const double* alo, std::size_t lda,
                      int rows, int c0, int c1, const double* vhi,
                      const double* vlo, double bhi, double blo, double* whi,
                      double* wlo) = nullptr;
  // A[t][c] -= v[t] * w[c] for c in [c0, c1) — the Householder apply.
  void (*dd_rank1)(double* ahi, double* alo, std::size_t lda, int rows,
                   int c0, int c1, const double* vhi, const double* vlo,
                   const double* whi, const double* wlo) = nullptr;
  // C[i][j] = sum_t A[i][t] * B[j][t] (B transposed), ascending t.
  void (*dd_gemm_nt)(const double* ahi, const double* alo, std::size_t lda,
                     const double* bhi, const double* blo, std::size_t ldb,
                     double* chi, double* clo, std::size_t ldc, int i0,
                     int i1, int j0, int j1, int t0, int t1) = nullptr;
  // C[i][j] = sum_t A[i][t] * B[t][j], ascending t.
  void (*dd_gemm_nn)(const double* ahi, const double* alo, std::size_t lda,
                     const double* bhi, const double* blo, std::size_t ldb,
                     double* chi, double* clo, std::size_t ldc, int i0,
                     int i1, int j0, int j1, int t0, int t1) = nullptr;
  // C[i][j] += S[i][j] over the window [i0,i1) x [j0,j1).
  void (*dd_ewise_add)(double* chi, double* clo, std::size_t ldc,
                       const double* shi, const double* slo, std::size_t lds,
                       int i0, int i1, int j0, int j1) = nullptr;
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
