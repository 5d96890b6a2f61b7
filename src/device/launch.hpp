// The kernel launch engine of the device simulator.
//
// A Device executes kernels in one of two modes:
//   * functional — the kernel body really runs (on the host) against
//     staged device storage, and the multiple-double operations it
//     executes are measured via the thread-local tally;
//   * dry_run    — the body is skipped; only the analytic operation and
//     byte counts supplied at the launch site are recorded.  This walks
//     the *identical* launch schedule without allocating matrices, which
//     is how the large-dimension experiments are priced (DESIGN.md §1).
//
// In both modes the kernel time is modeled from the analytic counts, so
// modeled times are mode-independent; the test suite asserts that the
// measured and analytic tallies agree exactly, which pins the analytic
// formulas to the real algorithm.
//
// Functional kernels may additionally execute for real on multiple host
// threads: launch_tiled() partitions a kernel body into independent tasks
// and spreads them over a util::ThreadPool attached with
// set_parallelism().  The declared launch bookkeeping (blocks, analytic
// tally, bytes, modeled time) is identical to launch() — the knob changes
// only how the host spends wall-clock on the body — and per-task measured
// tallies are summed in task-index order, so measured == analytic and
// bit-identical results hold at every parallelism width (DESIGN.md §5).
// launch()/launch_tiled() are the one executor: every solver issues its
// schedule through them, and each launch joins before the next issues.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "device/device_spec.hpp"
#include "device/staged.hpp"
#include "device/timing_model.hpp"
#include "md/op_counts.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"

namespace mdlsq::device {

enum class ExecMode { functional, dry_run };

// Per-stage aggregate over all launches attributed to that stage.  Stages
// appear in first-launch order, matching the row order of the paper's
// tables.
struct StageStats {
  std::string name;
  std::int64_t launches = 0;
  std::int64_t blocks = 0;     // total blocks over all launches
  md::OpTally analytic;        // declared op counts
  md::OpTally measured;        // counted from functional bodies
  std::int64_t bytes = 0;      // compulsory global-memory traffic
  double kernel_ms = 0.0;      // modeled kernel time
};

// Flat usage summary of one Device — what a multi-stage driver (e.g. the
// adaptive precision ladder, which runs one Device per rung) folds into
// its per-stage accounting.  dp_flops converts at the device's precision,
// so summaries from devices at different precisions can be added as
// double-precision flops even though their OpTally counts must not be
// merged under a single Table 1 row.
struct DeviceUsage {
  std::int64_t launches = 0;
  md::OpTally analytic;
  md::OpTally measured;
  std::int64_t bytes = 0;
  double kernel_ms = 0.0;
  double wall_ms = 0.0;
  double dp_flops = 0.0;

  void reset() noexcept { *this = DeviceUsage{}; }

  // Snapshot delta: `o` must be an EARLIER usage() of the same device, so
  // a multi-phase driver can attribute usage per phase (take a snapshot,
  // run the phase, subtract) instead of cumulative-only.
  DeviceUsage& operator-=(const DeviceUsage& o) noexcept {
    launches -= o.launches;
    analytic -= o.analytic;
    measured -= o.measured;
    bytes -= o.bytes;
    kernel_ms -= o.kernel_ms;
    wall_ms -= o.wall_ms;
    dp_flops -= o.dp_flops;
    return *this;
  }
  friend DeviceUsage operator-(DeviceUsage a, const DeviceUsage& b) noexcept {
    a -= b;
    return a;
  }
};

class Device {
 public:
  Device(const DeviceSpec& spec, md::Precision prec, ExecMode mode,
         TimingParams params = default_params())
      : spec_(&spec), prec_(prec), mode_(mode), tp_(params) {}

  const DeviceSpec& spec() const noexcept { return *spec_; }
  md::Precision precision() const noexcept { return prec_; }
  ExecMode mode() const noexcept { return mode_; }
  bool functional() const noexcept { return mode_ == ExecMode::functional; }

  // Attaches the host execution engine: tiled kernel bodies run as up to
  // `width` concurrent tasks — the calling thread plus at most width-1
  // workers of `pool`.  Null pool or width <= 1 keeps bodies sequential.
  // The knob never touches the modeled schedule, only host wall-clock.
  void set_parallelism(util::ThreadPool* pool, int width) noexcept {
    pool_ = (pool != nullptr && width > 1) ? pool : nullptr;
    width_ = pool_ != nullptr ? width : 1;
  }
  int parallelism() const noexcept { return width_; }
  util::ThreadPool* task_pool() const noexcept { return pool_; }

  // Launches one kernel.
  //   stage    row label (paper table legend) this launch aggregates under
  //   blocks, threads   launch configuration
  //   ops      analytic multiple-double operation count of the launch
  //   bytes    analytic compulsory global-memory bytes of the launch
  //   serial   longest per-thread dependency chain (md ops); zero means
  //            "assume uniform": ops / (blocks*threads)
  //   body     the kernel, run only in functional mode
  template <class F>
  void launch(std::string_view stage, int blocks, int threads,
              const md::OpTally& ops, std::int64_t bytes,
              const md::OpTally& serial, F&& body) {
    const Declared d = declare(stage, blocks, threads, ops, bytes, serial);
    obs::Span span(stage, obs::Cat::kernel, md::limbs_of(prec_));
    span.set_modeled_ms(d.kernel_ms);
    span.set_bytes(bytes);
    if (mode_ == ExecMode::functional) {
      md::ScopedTally scope(d.stats->measured);
      body();
    }
  }

  // Launches one kernel whose body is partitioned into `ntasks`
  // independent tasks: body(t) for t in [0, ntasks).  Tasks must write
  // disjoint state (the caller's tiling guarantees it), so any execution
  // order yields bit-identical memory effects; per-task measured tallies
  // are accumulated separately and summed in task-index order, keeping
  // the stage's measured tally exactly equal to the sequential run.
  // The declared bookkeeping is identical to launch() — one launch, same
  // blocks/ops/bytes/modeled time — at every parallelism width.
  template <class F>
  void launch_tiled(std::string_view stage, int blocks, int threads,
                    const md::OpTally& ops, std::int64_t bytes,
                    const md::OpTally& serial, int ntasks, F&& body) {
    const Declared d = declare(stage, blocks, threads, ops, bytes, serial);
    obs::Span span(stage, obs::Cat::kernel, md::limbs_of(prec_));
    span.set_modeled_ms(d.kernel_ms);
    span.set_bytes(bytes);
    StageStats& st = *d.stats;
    if (mode_ != ExecMode::functional) return;
    if (pool_ != nullptr && width_ > 1 && ntasks > 1) {
      std::vector<md::OpTally> per_task(static_cast<std::size_t>(ntasks));
      util::run_tasks(pool_, width_, ntasks, [&](int t) {
        md::ScopedTally scope(per_task[static_cast<std::size_t>(t)]);
        body(t);
      });
      for (const md::OpTally& t : per_task) st.measured += t;
    } else {
      md::ScopedTally scope(st.measured);
      for (int t = 0; t < ntasks; ++t) body(t);
    }
  }

  // Records a host <-> device transfer of `bytes` (wall-clock model only).
  void transfer(std::int64_t bytes) noexcept { transfer_bytes_ += bytes; }

  // --- staged residency (DESIGN.md §8) -----------------------------------
  // stage()/unstage() are the EXPLICIT priced host<->device transfers of
  // the staged-resident memory model: a pipeline stages its inputs once,
  // keeps every intermediate resident across launches, and unstages only
  // final results.  price_staging() is the data-free twin: it records the
  // identical transfer, so dry-run walks of the same driver price the
  // same wall clock the functional walk does.

  // Bytes moved by one host<->device staging of rows*cols elements of T.
  template <class T>
  static constexpr std::int64_t staging_bytes(std::int64_t rows,
                                              std::int64_t cols) noexcept {
    return rows * cols * blas::scalar_traits<T>::doubles_per_element *
           static_cast<std::int64_t>(sizeof(double));
  }

  // Price one host<->device staging of rows*cols elements of T.  Emits a
  // transfer-category span like the functional stage()/unstage() wrappers
  // do, so a dry-run walk traces the identical transfer schedule.
  template <class T>
  void price_staging(std::int64_t rows, std::int64_t cols) {
    obs::Span span("staging", obs::Cat::transfer, md::limbs_of(prec_));
    record_transfer(span, staging_bytes<T>(rows, cols));
  }

  template <class T>
  Staged2D<T> stage(const blas::Matrix<T>& m) {
    obs::Span span("stage", obs::Cat::transfer, md::limbs_of(prec_));
    record_transfer(span, staging_bytes<T>(m.rows(), m.cols()));
    return Staged2D<T>::from_host(m);
  }
  template <class T>
  Staged1D<T> stage(const blas::Vector<T>& v) {
    obs::Span span("stage", obs::Cat::transfer, md::limbs_of(prec_));
    record_transfer(span, staging_bytes<T>(static_cast<std::int64_t>(v.size()), 1));
    return Staged1D<T>::from_host(v);
  }
  template <class T>
  blas::Matrix<T> unstage(const Staged2D<T>& s) {
    obs::Span span("unstage", obs::Cat::transfer, md::limbs_of(prec_));
    record_transfer(span, staging_bytes<T>(s.rows(), s.cols()));
    return s.to_host();
  }
  template <class T>
  blas::Vector<T> unstage(const Staged1D<T>& s) {
    obs::Span span("unstage", obs::Cat::transfer, md::limbs_of(prec_));
    record_transfer(span, staging_bytes<T>(s.size(), 1));
    return s.to_host();
  }

  const std::vector<StageStats>& stages() const noexcept { return stages_; }

  std::int64_t launches() const noexcept {
    std::int64_t n = 0;
    for (const auto& s : stages_) n += s.launches;
    return n;
  }
  md::OpTally analytic_total() const noexcept {
    md::OpTally t;
    for (const auto& s : stages_) t += s.analytic;
    return t;
  }
  md::OpTally measured_total() const noexcept {
    md::OpTally t;
    for (const auto& s : stages_) t += s.measured;
    return t;
  }
  std::int64_t bytes_total() const noexcept {
    std::int64_t b = 0;
    for (const auto& s : stages_) b += s.bytes;
    return b;
  }

  // Modeled times, milliseconds; flop rates in gigaflops, following the
  // paper's convention: kernel flops over kernel time, total flops over
  // wall time.
  double kernel_ms() const noexcept {
    double t = 0;
    for (const auto& s : stages_) t += s.kernel_ms;
    return t;
  }
  double wall_ms() const noexcept {
    return kernel_ms() + transfer_time_ms(*spec_, transfer_bytes_, tp_);
  }
  double dp_flops() const noexcept { return analytic_total().dp_flops(prec_); }
  double kernel_gflops() const noexcept {
    const double ms = kernel_ms();
    return ms > 0 ? dp_flops() / (ms * 1e6) : 0.0;
  }
  double wall_gflops() const noexcept {
    const double ms = wall_ms();
    return ms > 0 ? dp_flops() / (ms * 1e6) : 0.0;
  }

  DeviceUsage usage() const noexcept {
    return {launches(),  analytic_total(), measured_total(), bytes_total(),
            kernel_ms(), wall_ms(),        dp_flops()};
  }

  // Usage accumulated since `mark` (an earlier usage() of this device) —
  // per-phase attribution without resetting the device.
  DeviceUsage usage_since(const DeviceUsage& mark) const noexcept {
    return usage() - mark;
  }

  void reset() {
    stages_.clear();
    transfer_bytes_ = 0;
  }

 private:
  // One launch's bookkeeping: the stage aggregate it landed in plus THIS
  // launch's modeled kernel time (the stage only holds the running sum),
  // so the launch span can carry its own price without recomputation.
  struct Declared {
    StageStats* stats;
    double kernel_ms;
  };

  Declared declare(std::string_view stage, int blocks, int threads,
                   const md::OpTally& ops, std::int64_t bytes,
                   const md::OpTally& serial) {
    StageStats& st = slot(stage);
    st.launches += 1;
    st.blocks += blocks;
    st.analytic += ops;
    st.bytes += bytes;
    const double ms = kernel_time_ms(*spec_, prec_, ops, bytes, blocks,
                                     threads, serial, tp_);
    st.kernel_ms += ms;
    return {&st, ms};
  }

  // Annotate a transfer span with its bytes and modeled wire time, then
  // record the transfer.  The modeled price is only computed when a
  // session is live — the disabled path stays one branch per site.
  void record_transfer(obs::Span& span, std::int64_t bytes) noexcept {
    if (span.active()) {
      span.set_bytes(bytes);
      span.set_modeled_ms(transfer_time_ms(*spec_, bytes, tp_));
    }
    transfer(bytes);
  }

  StageStats& slot(std::string_view name) {
    for (auto& s : stages_)
      if (s.name == name) return s;
    stages_.emplace_back();
    stages_.back().name = std::string(name);
    return stages_.back();
  }

  const DeviceSpec* spec_;
  md::Precision prec_;
  ExecMode mode_;
  TimingParams tp_;
  util::ThreadPool* pool_ = nullptr;  // tile-task engine (not owned)
  int width_ = 1;                     // tasks per tiled launch, incl. caller
  std::vector<StageStats> stages_;
  std::int64_t transfer_bytes_ = 0;
};

}  // namespace mdlsq::device
