#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cstring>
#include <random>
#include <stdexcept>
#include <thread>

namespace perfbench {

const char* const kWorkloads[4] = {"dense_lsq", "adaptive_batch",
                                   "track_batch", "serve_mix"};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "dense_lsq") return make_dense_lsq(seed);
  if (name == "adaptive_batch") return make_adaptive_batch(seed);
  if (name == "track_batch") return make_track_batch(seed);
  if (name == "serve_mix") return make_serve_mix(seed);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

void Counters::add_slot_ms(int slot, double ms) {
  if (slot < 0) return;
  if (slot_ms.size() <= static_cast<std::size_t>(slot))
    slot_ms.resize(static_cast<std::size_t>(slot) + 1, 0.0);
  slot_ms[static_cast<std::size_t>(slot)] += ms;
}

void Counters::absorb_rungs(const std::vector<mdlsq::util::RungStats>& rs) {
  ++ladders;
  rungs += static_cast<std::int64_t>(rs.size());
  if (!rs.empty() && rs.front().accepted) ++first_rung_accepts;
  for (const auto& r : rs) {
    refactorizations += r.refactorized ? 1 : 0;
    refine_iters += r.refine_iterations;
    device_dp_flops += r.analytic.dp_flops(r.device_precision);
    host_dp_flops += r.host_ops.dp_flops(r.precision);
    device_md_ops += r.analytic.md_ops();
    host_md_ops += r.host_ops.md_ops();
    ops_by_limbs[mdlsq::md::limbs_of(r.device_precision)] += r.analytic;
    ops_by_limbs[mdlsq::md::limbs_of(r.precision)] += r.host_ops;
  }
}

void Phase::add_op(std::int64_t start_ns, std::int64_t end_ns, double ms,
                   int limbs) {
  win_start_ns.push_back(start_ns);
  win_end_ns.push_back(end_ns);
  op_ms.push_back(ms);
  op_limbs.push_back(limbs);
}

void Phase::fail(const std::string& why) {
  ++failed;
  if (failures.size() < 8) failures.push_back(why);
}

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<std::int64_t>(v.size());
  const std::int64_t rank =
      std::clamp<std::int64_t>(static_cast<std::int64_t>(std::ceil(q * n)),
                               1, n);
  return v[static_cast<std::size_t>(rank - 1)];
}

std::int64_t samples_beyond(std::int64_t n, double q) {
  if (n <= 0) return 0;
  const std::int64_t rank =
      std::clamp<std::int64_t>(static_cast<std::int64_t>(std::ceil(q * n)),
                               1, n);
  return n - rank;
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double windowed_percentile(const std::vector<double>& v, double q,
                           int window) {
  const std::size_t n = v.size();
  const std::size_t k = window > 0 ? n / static_cast<std::size_t>(window) : 0;
  if (k < 2) return percentile(v, q);
  std::vector<double> per_window;
  for (std::size_t i = 0; i < k; ++i) {
    const auto first = v.begin() + static_cast<std::ptrdiff_t>(i * n / k);
    const auto last = v.begin() + static_cast<std::ptrdiff_t>((i + 1) * n / k);
    per_window.push_back(percentile(std::vector<double>(first, last), q));
  }
  return median(std::move(per_window));
}

std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     double seconds, int min_count) {
  std::mt19937_64 gen(seed);
  std::exponential_distribution<double> gap(rate_per_s / 1e3);
  std::vector<double> due;
  double t = 0;
  while (t < seconds * 1e3 || static_cast<int>(due.size()) < min_count) {
    t += gap(gen);
    due.push_back(t);
  }
  return due;
}

OpenLoopLog run_open_loop(const std::vector<double>& due_ms,
                          const std::function<void(std::size_t)>& send) {
  OpenLoopLog log;
  log.due_ns.reserve(due_ms.size());
  log.sent_ns.reserve(due_ms.size());
  const std::int64_t t0 = mdlsq::obs::now_ns();
  for (std::size_t i = 0; i < due_ms.size(); ++i) {
    const std::int64_t due = t0 + static_cast<std::int64_t>(due_ms[i] * 1e6);
    std::int64_t now = mdlsq::obs::now_ns();
    if (now < due)
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
    log.due_ns.push_back(due);
    log.sent_ns.push_back(mdlsq::obs::now_ns());
    send(i);
  }
  return log;
}

void Digest::add(double d) {
  unsigned char bytes[sizeof d];
  std::memcpy(bytes, &d, sizeof d);
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KB on Linux
}

}  // namespace perfbench
