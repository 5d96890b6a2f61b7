// Shared harness types of the wall-clock benchmark: the per-phase record
// every workload fills, the workload interface, sample statistics, the
// open-loop generator, and the correctness oracles.  Everything here drives
// the library through its public surface only (mdlsq.hpp).
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "mdlsq.hpp"

namespace perfbench {

using mdlsq::md::mdreal;

// A run needs at least this many ops so that ten samples lie beyond p90.
inline constexpr int kMinOps = 100;

// Work counters of one phase, summed over its ops.  They come from the
// results the public entry points return (tallies, rung and step stats),
// never from inside the library.
struct Counters {
  double device_dp_flops = 0;   // Table 1 dp flops of all device launches
  double host_dp_flops = 0;     // dp flops of host-side ladder work
  std::int64_t device_md_ops = 0;
  std::int64_t host_md_ops = 0;
  std::map<int, mdlsq::md::OpTally> ops_by_limbs;  // device + host md ops
  double modeled_ms = 0;        // modeled device wall (kernel + transfer)
  double transfer_ms = 0;       // modeled transfer share of modeled_ms
  // Adaptive ladders (solver ladders and tracker steps alike).
  std::int64_t ladders = 0, rungs = 0, refactorizations = 0;
  std::int64_t refine_iters = 0, first_rung_accepts = 0;
  // Path tracking.
  std::int64_t paths = 0, steps = 0, halvings = 0, corrections = 0;
  std::int64_t escalations = 0, converged_paths = 0;
  bool step_stats = false;  // halvings and escalations were observable
  // Modeled ms per pool slot (the shard balance of batch and serve ops).
  std::vector<double> slot_ms;
  // Service.
  std::int64_t cache_hits = 0, cache_misses = 0, evictions = 0;
  std::int64_t rejected = 0;

  void add_slot_ms(int slot, double ms);
  void absorb_rungs(const std::vector<mdlsq::util::RungStats>& rungs);
  template <int NH>
  void absorb_track(const mdlsq::path::TrackResult<NH>& r);
};

// One measured phase: a latency per op plus everything needed to derive
// the end-to-end and per-layer metrics after the timer stops.
struct Phase {
  std::vector<double> op_ms;          // one latency per completed op
  std::vector<int> op_limbs;          // precision of each op (0: mixed)
  std::vector<std::int64_t> win_start_ns, win_end_ns;  // op windows
  std::vector<double> gen_lag_ms;     // open loop: send time - due time
  double wall_s = 0;                  // first op start to last op end
  std::int64_t attempted = 0;
  std::int64_t failed = 0;            // wrong answer, rejection, exception
  std::vector<std::string> failures;  // first few failure messages
  Counters c;

  void add_op(std::int64_t start_ns, std::int64_t end_ns, double ms,
              int limbs = 0);
  void fail(const std::string& why);
};

// One job kind.  setup() builds the pools or the service and runs the
// warm-up; run() issues timed ops for `seconds` (and at least `min_ops`)
// and keeps their outputs; check() verifies those outputs outside the
// timer.
class Workload {
 public:
  virtual ~Workload() = default;
  virtual void setup() = 0;
  virtual Phase run(double seconds, int min_ops) = 0;
  virtual void check(Phase& phase) = 0;
  // Latency limit of on_time_frac, fixed per workload (README.md).
  virtual double latency_limit_ms() const = 0;
  // True when the calling thread executes kernels itself; otherwise
  // launches seen on the client thread are dry-run pricing walks.
  virtual bool client_runs_kernels() const { return false; }
  // Tile-level width of each device solve (util::run_tasks fan-out).
  virtual int tile_parallelism() const { return 1; }
  // Order-sensitive hash of every generated input (seed determinism).
  virtual std::uint64_t input_digest() const = 0;
  // Self-test hook: the check of op `op` sees a corrupted answer.
  void inject_wrong_answer(std::int64_t op) { corrupt_op_ = op; }

 protected:
  std::int64_t corrupt_op_ = -1;
};

std::unique_ptr<Workload> make_dense_lsq(std::uint64_t seed);
std::unique_ptr<Workload> make_adaptive_batch(std::uint64_t seed);
std::unique_ptr<Workload> make_track_batch(std::uint64_t seed);
std::unique_ptr<Workload> make_serve_mix(std::uint64_t seed);
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);
extern const char* const kWorkloads[4];

// --- statistics --------------------------------------------------------------

// Nearest-rank percentile (q in (0, 1]) of unsorted samples.
double percentile(std::vector<double> v, double q);
// Samples strictly above the nearest-rank q-percentile position: the rule
// "at least ten samples beyond p90" holds when this is >= 10.
std::int64_t samples_beyond(std::int64_t n, double q);
double median(std::vector<double> v);

// Ops per window of the reported latency percentiles: a full window, like
// a whole run, leaves ten samples beyond its p90.
inline constexpr int kWindowOps = kMinOps;
// Median, over consecutive windows of about `window` samples (in op
// order), of the q-percentile within each window; with fewer than two full
// windows, the q-percentile of all samples.  A burst of host contention
// then moves only the windows it overlaps, not the reported value.
double windowed_percentile(const std::vector<double>& v, double q,
                           int window = kWindowOps);

// --- open loop ---------------------------------------------------------------

// Seeded Poisson arrival offsets (ms from the start) at `rate_per_s`, for
// `seconds` and at least `min_count` arrivals.
std::vector<double> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                     double seconds, int min_count);

// Sends request i at its due time t0 + due_ms[i] (never early, never
// skipped: a stalled sender sends late) and records the due and send
// times.  Latency is then measured from the due time, so a stall is
// charged to every request it delays.
struct OpenLoopLog {
  std::vector<std::int64_t> due_ns, sent_ns;
};
OpenLoopLog run_open_loop(const std::vector<double>& due_ms,
                          const std::function<void(std::size_t)>& send);

// --- oracles -----------------------------------------------------------------

// Normwise backward error of a least-squares solution, evaluated in the
// input precision: ||A^T (b - A x)||_inf / (||A||_inf (||A||_inf ||x||_inf
// + ||b||_inf)).  Zero exactly at a stationary point.
template <int N>
double lsq_backward_error(const mdlsq::blas::Matrix<mdreal<N>>& a,
                          const mdlsq::blas::Vector<mdreal<N>>& b,
                          const mdlsq::blas::Vector<mdreal<N>>& x) {
  using T = mdreal<N>;
  if (static_cast<int>(x.size()) != a.cols()) return INFINITY;
  const auto ax = mdlsq::blas::gemv(a, std::span<const T>(x));
  mdlsq::blas::Vector<T> r(b.size());
  for (std::size_t i = 0; i < r.size(); ++i) r[i] = b[i] - ax[i];
  const auto g = mdlsq::blas::gemv_adjoint(a, std::span<const T>(r));
  double gn = 0, an = 0, xn = 0, bn = 0;
  for (const T& v : g) gn = std::fmax(gn, std::fabs(v.to_double()));
  for (int i = 0; i < a.rows(); ++i) {
    double s = 0;
    for (int j = 0; j < a.cols(); ++j) s += std::fabs(a(i, j).to_double());
    an = std::fmax(an, s);
  }
  for (const T& v : x) xn = std::fmax(xn, std::fabs(v.to_double()));
  for (const T& v : b) bn = std::fmax(bn, std::fabs(v.to_double()));
  const double scale = an * (an * xn + bn);
  if (!std::isfinite(gn) || !(scale > 0)) return INFINITY;
  return gn / scale;
}

// Unit roundoff of an N-limb multiple double, 2^(2 - 53 N).
inline double eps_of(int limbs) { return std::ldexp(4.0, -53 * limbs); }

// Max-norm distance of x to a reference, relative to the reference.
template <int N>
double rel_error(const mdlsq::blas::Vector<mdreal<N>>& x,
                 const mdlsq::blas::Vector<mdreal<N>>& want) {
  if (x.size() != want.size()) return INFINITY;
  double d = 0, w = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    d = std::fmax(d, std::fabs((x[i] - want[i]).to_double()));
    w = std::fmax(w, std::fabs(want[i].to_double()));
  }
  return w > 0 ? d / w : d;
}

template <int N>
bool limb_equal(const mdlsq::blas::Vector<mdreal<N>>& a,
                const mdlsq::blas::Vector<mdreal<N>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    for (int l = 0; l < N; ++l)
      if (a[i].limb(l) != b[i].limb(l)) return false;
  return true;
}

// The self-test corruption: perturbs the leading limb by one part in 1e6.
template <int N>
void corrupt(mdlsq::blas::Vector<mdreal<N>>& x) {
  if (!x.empty()) x[0].set_limb(0, x[0].limb(0) * (1.0 + 1e-6) + 1e-6);
}

// Order-sensitive FNV-1a over limbs (input digests).
struct Digest {
  std::uint64_t h = 1469598103934665603ULL;
  void add(double d);
  template <int N>
  void add(const mdlsq::blas::Matrix<mdreal<N>>& a) {
    for (int i = 0; i < a.rows(); ++i)
      for (int j = 0; j < a.cols(); ++j)
        for (int l = 0; l < N; ++l) add(a(i, j).limb(l));
  }
  template <int N>
  void add(const mdlsq::blas::Vector<mdreal<N>>& v) {
    for (const auto& e : v)
      for (int l = 0; l < N; ++l) add(e.limb(l));
  }
};

// Peak resident set of this process, MB (getrusage).
double peak_rss_mb();

// --- template members --------------------------------------------------------

template <int NH>
void Counters::absorb_track(const mdlsq::path::TrackResult<NH>& r) {
  ++paths;
  step_stats = true;
  converged_paths += r.converged ? 1 : 0;
  corrections += r.correction_solves();
  for (const auto& s : r.steps) {
    ++steps;
    halvings += s.halvings;
    if (!s.rungs.empty())
      escalations += static_cast<std::int64_t>(s.rungs.size()) - 1;
    absorb_rungs(s.rungs);
  }
  modeled_ms += r.wall_ms();
  transfer_ms += r.wall_ms() - r.kernel_ms();
}

}  // namespace perfbench
