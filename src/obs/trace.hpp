// Structured tracing: a lock-cheap, thread-safe span recorder for the
// device simulator and every layer above it (DESIGN.md §12).
//
// Ownership model: tracing is OFF unless a TraceSession object is alive.
// Installing a session publishes it through one process-wide atomic;
// every span site loads that atomic once, and when no session is
// installed the whole site costs exactly one predictable branch — no
// clock read, no string copy, no lock.  This is the same discipline as
// md::ScopedTally's thread-local hook, and it is what lets the
// instrumentation live permanently inside the hot launch path.
//
// When a session IS installed, each emitting thread owns a private ring
// buffer guarded by its own mutex.  The owning thread is the only writer,
// so the lock is uncontended (cheap) in steady state; snapshot() takes
// the same locks briefly to copy records out.  Rings overflow by
// dropping the OLDEST records and counting the drops, so a long run can
// always be traced — the tail of the timeline survives.
//
// Determinism: span bodies touch only doubles, integers and strings —
// never multiple-double arithmetic — so a live session cannot perturb
// the md-op tallies, and it never reorders or skips launches, so
// bit-identity and measured == analytic hold unchanged with tracing on
// (pinned by tests/test_obs.cpp and the bench_suite "trace" sanity case).
//
// Lifetime contract: the session must outlive all instrumented work.
// Destroying a session while spans are open on other threads is a
// programming error (the generation counter makes stale thread caches
// detectable across sessions, not within one).
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mdlsq::obs {

// Span categories — the rows of the timeline.  One per architectural
// layer: kernel/transfer/panel come from device/ and core/, ladder from
// the adaptive precision ladder, step from the path tracker, queue/cache/
// service from the solver daemon.
enum class Cat : std::uint8_t {
  kernel,
  transfer,
  panel,
  ladder,
  step,
  queue,
  cache,
  service,
};

inline const char* name_of(Cat c) noexcept {
  switch (c) {
    case Cat::kernel: return "kernel";
    case Cat::transfer: return "transfer";
    case Cat::panel: return "panel";
    case Cat::ladder: return "ladder";
    case Cat::step: return "step";
    case Cat::queue: return "queue";
    case Cat::cache: return "cache";
    case Cat::service: return "service";
  }
  return "?";
}

// One closed span.  modeled_ms < 0 means "no modeled price attached";
// measured wall time is (end_ns - start_ns) / 1e6.
struct SpanRecord {
  std::string name;
  Cat cat = Cat::kernel;
  int limbs = 0;             // 0 when not precision-specific
  double modeled_ms = -1.0;  // modeled cost (kernel/transfer model), if any
  std::int64_t bytes = 0;
  std::int64_t start_ns = 0;  // monotonic clock
  std::int64_t end_ns = 0;
  int depth = 0;  // nesting depth on the emitting thread at open
  std::uint32_t tid = 0;

  double measured_ms() const noexcept {
    return static_cast<double>(end_ns - start_ns) / 1e6;
  }
};

struct TraceOptions {
  std::size_t ring_capacity = 4096;  // records per emitting thread
};

// Monotonic nanoseconds (std::chrono::steady_clock).
inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class TraceSession;

namespace detail {

// Per-thread ring.  The owning thread is the only pusher; the mutex
// exists so snapshot() can read a consistent copy.
struct ThreadBuf {
  explicit ThreadBuf(std::size_t capacity, std::uint32_t id)
      : cap(capacity), tid(id) {
    ring.reserve(std::min<std::size_t>(cap, 64));
  }

  void push(SpanRecord&& r) {
    const std::lock_guard<std::mutex> lock(mu);
    if (ring.size() < cap) {
      ring.push_back(std::move(r));
    } else {
      ring[static_cast<std::size_t>(total % cap)] = std::move(r);
    }
    ++total;
  }

  std::mutex mu;
  std::vector<SpanRecord> ring;  // circular once full: oldest at total % cap
  std::uint64_t total = 0;       // records ever pushed (>= ring.size())
  int depth = 0;                 // open spans; touched only by the owner
  std::size_t cap;
  std::uint32_t tid;
};

// The process-wide install point.  The generation counter bumps on every
// install AND uninstall, so a thread-local cached buffer pointer can
// never be mistaken for belonging to a different (or dead) session.
inline std::atomic<TraceSession*> g_session{nullptr};
inline std::atomic<std::uint64_t> g_generation{1};

struct TlsSlot {
  std::uint64_t gen = 0;
  ThreadBuf* buf = nullptr;
};
inline thread_local TlsSlot tls_slot;

}  // namespace detail

// Everything captured by one session, in global chronological order
// (ties broken so parents sort before their children).
struct TraceSnapshot {
  std::vector<SpanRecord> spans;
  std::int64_t dropped = 0;  // records lost to ring overflow, all threads
};

class TraceSession {
 public:
  explicit TraceSession(TraceOptions opt = {}) : opt_(opt) {
    if (opt_.ring_capacity == 0)
      throw std::invalid_argument(
          "mdlsq: TraceOptions::ring_capacity must be >= 1");
    TraceSession* expected = nullptr;
    if (!detail::g_session.compare_exchange_strong(expected, this,
                                                   std::memory_order_acq_rel))
      throw std::logic_error("mdlsq: a TraceSession is already installed");
    detail::g_generation.fetch_add(1, std::memory_order_release);
  }

  ~TraceSession() {
    detail::g_session.store(nullptr, std::memory_order_release);
    detail::g_generation.fetch_add(1, std::memory_order_release);
  }

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

  std::size_t ring_capacity() const noexcept { return opt_.ring_capacity; }

  // Registered emitting threads so far.
  std::size_t threads() const {
    const std::lock_guard<std::mutex> lock(bufs_mu_);
    return bufs_.size();
  }

  std::int64_t dropped() const {
    const std::lock_guard<std::mutex> lock(bufs_mu_);
    std::int64_t d = 0;
    for (const auto& b : bufs_)
      if (b->total > b->cap) d += static_cast<std::int64_t>(b->total - b->cap);
    return d;
  }

  // Copies every surviving record out, reconstructing per-ring
  // chronological order and then sorting globally by (start, -end) so a
  // parent always precedes its children — the order the exporters and
  // the self-time summarizer want.
  TraceSnapshot snapshot() const {
    TraceSnapshot out;
    const std::lock_guard<std::mutex> lock(bufs_mu_);
    for (const auto& b : bufs_) {
      const std::lock_guard<std::mutex> ring_lock(b->mu);
      if (b->total > b->cap)
        out.dropped += static_cast<std::int64_t>(b->total - b->cap);
      const std::size_t n = b->ring.size();
      const std::size_t oldest =
          b->total > b->cap ? static_cast<std::size_t>(b->total % b->cap) : 0;
      for (std::size_t i = 0; i < n; ++i)
        out.spans.push_back(b->ring[(oldest + i) % n]);
    }
    std::stable_sort(out.spans.begin(), out.spans.end(),
                     [](const SpanRecord& a, const SpanRecord& b) {
                       if (a.start_ns != b.start_ns)
                         return a.start_ns < b.start_ns;
                       return a.end_ns > b.end_ns;
                     });
    return out;
  }

  // The emitting thread's ring, created on first use.  Called through the
  // thread-local generation cache, so the lock here is paid once per
  // (thread, session) pair, not per span.
  detail::ThreadBuf* register_thread() {
    const std::lock_guard<std::mutex> lock(bufs_mu_);
    bufs_.push_back(std::make_unique<detail::ThreadBuf>(
        opt_.ring_capacity, static_cast<std::uint32_t>(bufs_.size() + 1)));
    return bufs_.back().get();
  }

 private:
  TraceOptions opt_;
  mutable std::mutex bufs_mu_;
  std::vector<std::unique_ptr<detail::ThreadBuf>> bufs_;
};

inline TraceSession* current_session() noexcept {
  return detail::g_session.load(std::memory_order_acquire);
}

namespace detail {

// Resolve this thread's ring for `s`, consulting the generation cache.
inline ThreadBuf* buf_for_thread(TraceSession* s) {
  const std::uint64_t gen = g_generation.load(std::memory_order_acquire);
  TlsSlot& slot = tls_slot;
  if (slot.gen != gen) {
    slot.buf = s->register_thread();
    slot.gen = gen;
  }
  return slot.buf;
}

}  // namespace detail

// RAII span.  Constructing one when no session is installed costs a
// single branch; all other members stay default-initialized and the
// destructor sees buf_ == nullptr.  Annotations (modeled price, bytes)
// are no-ops on an inactive span, so call sites never re-test.
class Span {
 public:
  explicit Span(std::string_view name, Cat cat, int limbs = 0) {
    TraceSession* s = current_session();
    if (s == nullptr) return;  // the one disabled-path branch
    open(s, name, cat, limbs);
  }

  ~Span() {
    if (buf_ != nullptr) close();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  bool active() const noexcept { return buf_ != nullptr; }

  void set_modeled_ms(double ms) noexcept {
    if (buf_ != nullptr) modeled_ms_ = ms;
  }
  void add_modeled_ms(double ms) noexcept {
    if (buf_ != nullptr) modeled_ms_ = (modeled_ms_ < 0 ? 0 : modeled_ms_) + ms;
  }
  void set_bytes(std::int64_t b) noexcept {
    if (buf_ != nullptr) bytes_ = b;
  }
  void add_bytes(std::int64_t b) noexcept {
    if (buf_ != nullptr) bytes_ += b;
  }
  void set_limbs(int limbs) noexcept {
    if (buf_ != nullptr) limbs_ = limbs;
  }

 private:
  void open(TraceSession* s, std::string_view name, Cat cat, int limbs) {
    buf_ = detail::buf_for_thread(s);
    name_.assign(name);
    cat_ = cat;
    limbs_ = limbs;
    depth_ = buf_->depth++;
    start_ns_ = now_ns();
  }

  void close() {
    SpanRecord r;
    r.end_ns = now_ns();  // first: exclude the record bookkeeping itself
    r.name = std::move(name_);
    r.cat = cat_;
    r.limbs = limbs_;
    r.modeled_ms = modeled_ms_;
    r.bytes = bytes_;
    r.start_ns = start_ns_;
    r.depth = depth_;
    r.tid = buf_->tid;
    --buf_->depth;
    buf_->push(std::move(r));
    buf_ = nullptr;
  }

  detail::ThreadBuf* buf_ = nullptr;
  std::string name_;
  Cat cat_ = Cat::kernel;
  int limbs_ = 0;
  double modeled_ms_ = -1.0;
  std::int64_t bytes_ = 0;
  std::int64_t start_ns_ = 0;
  int depth_ = 0;
};

// Manual emission with explicit timestamps — for spans whose endpoints
// live on different threads or were captured before the record is cut
// (e.g. a job's queue wait: opened at submit on the client thread,
// closed at dispatch on the worker).  The record lands in the EMITTING
// thread's ring at its current nesting depth.
inline void emit_span(std::string_view name, Cat cat, std::int64_t start_ns,
                      std::int64_t end_ns, int limbs = 0,
                      double modeled_ms = -1.0, std::int64_t bytes = 0) {
  TraceSession* s = current_session();
  if (s == nullptr) return;  // the one disabled-path branch
  detail::ThreadBuf* buf = detail::buf_for_thread(s);
  SpanRecord r;
  r.name.assign(name);
  r.cat = cat;
  r.limbs = limbs;
  r.modeled_ms = modeled_ms;
  r.bytes = bytes;
  r.start_ns = start_ns;
  r.end_ns = end_ns;
  r.depth = buf->depth;
  r.tid = buf->tid;
  buf->push(std::move(r));
}

}  // namespace mdlsq::obs
