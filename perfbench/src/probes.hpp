// Layer probes of the traced run: the host roofline plus micro-timings of
// single layers taken from outside, through public functions only.  Each
// is later multiplied by a workload's per-op counts to estimate that
// layer's share of the op time.
#pragma once

#include <array>

#include "harness.hpp"

namespace perfbench {

struct Triad {
  double gbs = 0;       // sustained a = b + s c bandwidth, GB/s (24 B/elem)
  double array_mb = 0;  // size of each of the three arrays
  double llc_mb = 0;    // last-level cache size of this host
};

double fma_peak_gflops(int threads);
Triad triad_bandwidth(int threads);

// The shape dense_lsq solves at the middle of its row range (the core.*
// probes time blocked_qr and tiled_back_sub at exactly these shapes).
struct DenseShape {
  int rows, cols, tile;
};
DenseShape dense_probe_shape(int limbs);
inline constexpr int kDenseParallelism = 4;

// ns per multiple-double add (and sub), mul, div and sqrt at one
// precision, through the public mdreal operators.
struct MdCost {
  double add = 0, mul = 0, div = 0, sqrt = 0;

  double mean() const { return (add + mul + div + sqrt) / 4; }
  // Estimated ns to execute the operations of `t` one by one.
  double ns_for(const mdlsq::md::OpTally& t) const {
    return static_cast<double>(t.add + t.sub) * add +
           static_cast<double>(t.mul) * mul +
           static_cast<double>(t.div) * div +
           static_cast<double>(t.sqrt) * sqrt;
  }
};

struct Probes {
  double peak_gflops_1t = 0, peak_gflops = 0;  // 1 and 4 threads
  Triad triad;
  // Index 0, 1, 2 = d2, d4, d8; without and with a live md::ScopedTally.
  std::array<MdCost, 3> md{}, md_tallied{};
  double launch_us = 0;   // one empty Device::launch_tiled, no session
  double fanout_us = 0;   // one empty util::run_tasks at width 4
  std::array<double, 3> qr_ms{}, backsub_ms{};
  double overhead_d4_d2 = 0, overhead_d8_d4 = 0;
};

Probes run_probes();

}  // namespace perfbench
