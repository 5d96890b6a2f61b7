#include "probes.hpp"

#include <algorithm>
#include <optional>
#include <random>

#include "md/functions.hpp"

namespace perfbench {
namespace {

using namespace mdlsq;

volatile double g_sink = 0;

double elapsed_ms(std::int64_t t0) {
  return static_cast<double>(obs::now_ns() - t0) / 1e6;
}

// ns per operation of one kind (0 add, 1 mul, 2 div, 3 sqrt), over four
// independent chains, with or without a live md::ScopedTally.  Every
// chain stays near 1, so no value overflows or goes subnormal.
template <int N>
double md_kind_ns(int kind, std::int64_t iters, bool tallied) {
  using T = mdreal<N>;
  const double seed = 0.75 + g_sink * 0.0;  // run-time value: no folding
  T x[4] = {T(seed), T(seed + 0.05), T(seed + 0.1), T(seed + 0.15)};
  const T c(1e-9), a(1.0 + 1e-12);
  md::OpTally tally;
  std::optional<md::ScopedTally> scope;
  if (tallied) scope.emplace(tally);
  const std::int64_t t0 = obs::now_ns();
  switch (kind) {
    case 0:
      for (std::int64_t i = 0; i < iters; ++i)
        for (T& v : x) v = v + c;
      break;
    case 1:
      for (std::int64_t i = 0; i < iters; ++i)
        for (T& v : x) v = v * a;
      break;
    case 2:
      for (std::int64_t i = 0; i < iters; ++i)
        for (T& v : x) v = v / a;
      break;
    default:
      for (std::int64_t i = 0; i < iters; ++i)
        for (T& v : x) v = md::sqrt(v);
      break;
  }
  const double ns = static_cast<double>(obs::now_ns() - t0);
  g_sink = (x[0] + x[3]).to_double();
  return ns / (4.0 * static_cast<double>(iters));
}

// Fastest of five alternating (untallied, tallied) timings of ~15 ms per
// operation kind: the minimum is the timing least disturbed by other load.
template <int N>
std::pair<MdCost, MdCost> md_probe() {
  double plain[4], tallied[4];
  for (int kind = 0; kind < 4; ++kind) {
    std::int64_t iters = 256;
    while (md_kind_ns<N>(kind, iters, false) * 4.0 *
               static_cast<double>(iters) < 1.5e7)
      iters *= 2;
    plain[kind] = tallied[kind] = 1e300;
    for (int r = 0; r < 5; ++r) {
      plain[kind] = std::min(plain[kind], md_kind_ns<N>(kind, iters, false));
      tallied[kind] = std::min(tallied[kind], md_kind_ns<N>(kind, iters, true));
    }
  }
  return {{plain[0], plain[1], plain[2], plain[3]},
          {tallied[0], tallied[1], tallied[2], tallied[3]}};
}

double launch_probe_us() {
  device::Device dev(device::volta_v100(), md::Precision::d2,
                     device::ExecMode::functional);
  constexpr int kLaunches = 100000;
  std::vector<double> us;
  for (int r = 0; r < 3; ++r) {
    const std::int64_t t0 = obs::now_ns();
    for (int i = 0; i < kLaunches; ++i)
      dev.launch_tiled("probe", 1, 1, md::OpTally{}, 0, md::OpTally{}, 1,
                       [](int) {});
    us.push_back(elapsed_ms(t0) * 1e3 / kLaunches);
  }
  return median(us);
}

double fanout_probe_us() {
  util::ThreadPool pool(3);
  constexpr int kFanouts = 20000;
  std::array<int, 4> touched{};
  std::vector<double> us;
  for (int r = 0; r < 3; ++r) {
    const std::int64_t t0 = obs::now_ns();
    for (int i = 0; i < kFanouts; ++i)
      util::run_tasks(&pool, 4, 4,
                      [&](int t) { ++touched[static_cast<std::size_t>(t)]; });
    us.push_back(elapsed_ms(t0) * 1e3 / kFanouts);
  }
  g_sink = touched[0];
  return median(us);
}

// blocked_qr and tiled_back_sub timed apart at the dense_lsq shape of
// precision N (median of three, fresh Device each, parallelism 4).
template <int N>
std::pair<double, double> core_probe(util::ThreadPool& pool) {
  using T = mdreal<N>;
  const DenseShape s = dense_probe_shape(N);
  std::mt19937_64 gen(0xc0de + N);
  const auto a = blas::random_matrix<T>(s.rows, s.cols, gen);
  const auto u = blas::random_upper_triangular<T>(s.cols, gen);
  const auto b = blas::random_vector<T>(s.cols, gen);
  std::vector<double> qr, bs;
  for (int r = 0; r < 3; ++r) {
    {
      device::Device dev(device::volta_v100(), md::Precision(N),
                         device::ExecMode::functional);
      dev.set_parallelism(&pool, kDenseParallelism);
      const std::int64_t t0 = obs::now_ns();
      const auto f = core::blocked_qr<T>(dev, a, s.tile);
      qr.push_back(elapsed_ms(t0));
      g_sink = f.r(0, 0).to_double();
    }
    {
      device::Device dev(device::volta_v100(), md::Precision(N),
                         device::ExecMode::functional);
      dev.set_parallelism(&pool, kDenseParallelism);
      const std::int64_t t0 = obs::now_ns();
      const auto x = core::tiled_back_sub<T>(dev, u, b, s.cols / s.tile,
                                             s.tile);
      bs.push_back(elapsed_ms(t0));
      g_sink = x[0].to_double();
    }
  }
  return {median(qr), median(bs)};
}

// least_squares at one shape for every precision (median of three): the
// paper's cost overhead factor of doubling the precision, on this host.
template <int N>
double equal_shape_lsq_ms(util::ThreadPool& pool) {
  using T = mdreal<N>;
  constexpr int kRows = 64, kCols = 32, kTile = 16;
  std::mt19937_64 gen(0x0e0e);
  const auto a = blas::random_matrix<T>(kRows, kCols, gen);
  const auto b = blas::random_vector<T>(kRows, gen);
  std::vector<double> ms;
  for (int r = 0; r < 3; ++r) {
    device::Device dev(device::volta_v100(), md::Precision(N),
                       device::ExecMode::functional);
    dev.set_parallelism(&pool, kDenseParallelism);
    const std::int64_t t0 = obs::now_ns();
    const auto out = core::least_squares<T>(dev, a, b, kTile);
    ms.push_back(elapsed_ms(t0));
    g_sink = out.x[0].to_double();
  }
  return median(ms);
}

}  // namespace

Probes run_probes() {
  Probes p;
  p.peak_gflops_1t = fma_peak_gflops(1);
  p.peak_gflops = fma_peak_gflops(4);
  p.triad = triad_bandwidth(4);
  std::tie(p.md[0], p.md_tallied[0]) = md_probe<2>();
  std::tie(p.md[1], p.md_tallied[1]) = md_probe<4>();
  std::tie(p.md[2], p.md_tallied[2]) = md_probe<8>();
  p.launch_us = launch_probe_us();
  p.fanout_us = fanout_probe_us();
  util::ThreadPool pool(kDenseParallelism - 1);
  std::tie(p.qr_ms[0], p.backsub_ms[0]) = core_probe<2>(pool);
  std::tie(p.qr_ms[1], p.backsub_ms[1]) = core_probe<4>(pool);
  std::tie(p.qr_ms[2], p.backsub_ms[2]) = core_probe<8>(pool);
  const double t2 = equal_shape_lsq_ms<2>(pool);
  const double t4 = equal_shape_lsq_ms<4>(pool);
  const double t8 = equal_shape_lsq_ms<8>(pool);
  p.overhead_d4_d2 = t4 / t2;
  p.overhead_d8_d4 = t8 / t4;
  return p;
}

}  // namespace perfbench
