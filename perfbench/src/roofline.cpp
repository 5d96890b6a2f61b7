// Host roofline calibration: an FMA-loop compute peak and a triad memory
// bandwidth, measured in the same process as the workload — the host-side
// twin of the paper's device roofline (bench_table10_roofline).  The FMA
// loop picks the widest vector ISA the host supports at run time, so the
// default (generic) build still measures the machine's real peak.
#include <unistd.h>
#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include <algorithm>
#include <atomic>
#include <thread>
#include <vector>

#include "probes.hpp"

namespace perfbench {
namespace {

constexpr int kChains = 12;  // independent accumulators: hides FMA latency

#if defined(__x86_64__)
__attribute__((target("avx512f"))) double fma_avx512(std::int64_t iters,
                                                     double seed) {
  __m512d acc[kChains];
  for (int k = 0; k < kChains; ++k) acc[k] = _mm512_set1_pd(seed + k);
  const __m512d m = _mm512_set1_pd(0.999999);
  const __m512d a = _mm512_set1_pd(1e-3);
  for (std::int64_t i = 0; i < iters; ++i)
    for (int k = 0; k < kChains; ++k) acc[k] = _mm512_fmadd_pd(acc[k], m, a);
  alignas(64) double out[8];
  double s = 0;
  for (int k = 0; k < kChains; ++k) {
    _mm512_store_pd(out, acc[k]);
    for (double v : out) s += v;
  }
  return s;
}

__attribute__((target("avx2,fma"))) double fma_avx2(std::int64_t iters,
                                                    double seed) {
  __m256d acc[kChains];
  for (int k = 0; k < kChains; ++k) acc[k] = _mm256_set1_pd(seed + k);
  const __m256d m = _mm256_set1_pd(0.999999);
  const __m256d a = _mm256_set1_pd(1e-3);
  for (std::int64_t i = 0; i < iters; ++i)
    for (int k = 0; k < kChains; ++k) acc[k] = _mm256_fmadd_pd(acc[k], m, a);
  alignas(32) double out[4];
  double s = 0;
  for (int k = 0; k < kChains; ++k) {
    _mm256_store_pd(out, acc[k]);
    s += out[0] + out[1] + out[2] + out[3];
  }
  return s;
}
#endif

double fma_scalar(std::int64_t iters, double seed) {
  double acc[kChains];
  for (int k = 0; k < kChains; ++k) acc[k] = seed + k;
  for (std::int64_t i = 0; i < iters; ++i)
    for (int k = 0; k < kChains; ++k) acc[k] = acc[k] * 0.999999 + 1e-3;
  double s = 0;
  for (double v : acc) s += v;
  return s;
}

struct FmaKernel {
  double (*fn)(std::int64_t, double);
  int lanes;
};

FmaKernel best_fma() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return {fma_avx512, 8};
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma"))
    return {fma_avx2, 4};
#endif
  return {fma_scalar, 1};
}

std::atomic<double> g_sink{0};

// Wall seconds for `threads` concurrent runs of `iters` iterations.
double time_fma(const FmaKernel& k, int threads, std::int64_t iters) {
  std::vector<std::thread> ts;
  const std::int64_t t0 = mdlsq::obs::now_ns();
  for (int t = 0; t < threads; ++t)
    ts.emplace_back([&, t] {
      const double s = k.fn(iters, 0.5 + t);
      g_sink.store(s, std::memory_order_relaxed);
    });
  for (auto& t : ts) t.join();
  return static_cast<double>(mdlsq::obs::now_ns() - t0) / 1e9;
}

}  // namespace

double fma_peak_gflops(int threads) {
  const FmaKernel k = best_fma();
  // Calibrate to about 0.2 s per timing, then keep the best of three.
  std::int64_t iters = 1 << 16;
  while (time_fma(k, 1, iters) < 0.02) iters *= 4;
  iters = static_cast<std::int64_t>(
      static_cast<double>(iters) * 0.2 / time_fma(k, 1, iters));
  double best = 1e300;
  for (int r = 0; r < 3; ++r)
    best = std::min(best, time_fma(k, threads, iters));
  const double flops = 2.0 * k.lanes * kChains * static_cast<double>(iters) *
                       threads;
  return flops / best / 1e9;
}

Triad triad_bandwidth(int threads) {
  Triad out;
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  if (llc <= 0) llc = 32L << 20;
  out.llc_mb = static_cast<double>(llc) / (1 << 20);
  // The three arrays together span at least 4x the last-level cache
  // (and at least 64 MiB), capped at 1 GiB.
  const double total = std::clamp(4.0 * static_cast<double>(llc),
                                  64.0 * (1 << 20), 1024.0 * (1 << 20));
  const std::size_t n = static_cast<std::size_t>(total / 3 / sizeof(double));
  out.array_mb = static_cast<double>(n * sizeof(double)) / (1 << 20);
  std::unique_ptr<double[]> a(new double[n]), b(new double[n]),
      c(new double[n]);

  auto parallel = [&](auto&& body) {
    std::vector<std::thread> ts;
    for (int t = 0; t < threads; ++t)
      ts.emplace_back([&, t] {
        const std::size_t lo = n * static_cast<std::size_t>(t) /
                               static_cast<std::size_t>(threads);
        const std::size_t hi = n * static_cast<std::size_t>(t + 1) /
                               static_cast<std::size_t>(threads);
        body(lo, hi);
      });
    for (auto& t : ts) t.join();
  };
  // First touch on the threads that stream the slices later.
  parallel([&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      a[i] = 0.0;
      b[i] = 1.0;
      c[i] = 2.0;
    }
  });
  // A run-time scale factor, so the compiler cannot fold the triad away.
  const double s = 0.5 + static_cast<double>(g_sink.load() > 1e300);
  double best = 1e300;
  for (int r = 0; r < 4; ++r) {
    const std::int64_t t0 = mdlsq::obs::now_ns();
    parallel([&](std::size_t lo, std::size_t hi) {
      for (std::size_t i = lo; i < hi; ++i) a[i] = b[i] + s * c[i];
    });
    best = std::min(best,
                    static_cast<double>(mdlsq::obs::now_ns() - t0) / 1e9);
  }
  g_sink.store(a[n / 2], std::memory_order_relaxed);
  out.gbs = 3.0 * static_cast<double>(n * sizeof(double)) / best / 1e9;
  return out;
}

}  // namespace perfbench
