#include "trace_summary.hpp"

#include <algorithm>
#include <set>

namespace perfbench {
namespace {

using mdlsq::obs::Cat;
using mdlsq::obs::SpanRecord;
using Intervals = std::vector<std::pair<std::int64_t, std::int64_t>>;

bool is_bench(const SpanRecord& s) { return s.name.rfind("bench.", 0) == 0; }

Intervals merged(Intervals iv) {
  std::sort(iv.begin(), iv.end());
  Intervals out;
  for (const auto& [lo, hi] : iv) {
    if (hi <= lo) continue;
    if (!out.empty() && lo <= out.back().second)
      out.back().second = std::max(out.back().second, hi);
    else
      out.emplace_back(lo, hi);
  }
  return out;
}

// Length of the union of [lo, hi) intervals, in ns.
double covered_ns(Intervals iv) {
  double total = 0;
  for (const auto& [lo, hi] : merged(std::move(iv)))
    total += static_cast<double>(hi - lo);
  return total;
}

// Length of the intersection of two unions of intervals, in ns.
double overlap_ns(Intervals a, Intervals b) {
  const Intervals x = merged(std::move(a)), y = merged(std::move(b));
  double total = 0;
  std::size_t j = 0;
  for (const auto& [lo, hi] : x) {
    while (j < y.size() && y[j].second <= lo) ++j;
    for (std::size_t k = j; k < y.size() && y[k].first < hi; ++k)
      total += static_cast<double>(std::min(hi, y[k].second) -
                                   std::max(lo, y[k].first));
  }
  return total;
}

}  // namespace

const char* const kSelfCategories[10] = {
    "kernel", "transfer", "panel", "ladder", "step",
    "queue",  "cache",    "service", "sched", "bench"};

TraceSummary summarize(const mdlsq::obs::TraceSnapshot& snap,
                       const Phase& phase, bool client_runs_kernels) {
  TraceSummary out;
  out.spans = static_cast<std::int64_t>(snap.spans.size());
  out.dropped = snap.dropped;
  for (const char* c : kSelfCategories) out.self_ms[c] = 0.0;

  std::set<std::uint32_t> client;
  for (const SpanRecord& s : snap.spans)
    if (is_bench(s)) client.insert(s.tid);

  // Self time: a span's duration minus what its children on the same
  // thread cover.  Queue waits are emitted by the worker with the
  // submitter's start time, so they are waits, not nesting parents.
  std::map<std::uint32_t, std::vector<const SpanRecord*>> by_thread;
  Intervals library;
  std::set<std::uint32_t> job_threads;
  for (const SpanRecord& s : snap.spans) {
    if (s.cat == Cat::queue) {
      out.queue_wait_ms.push_back(s.measured_ms());
      out.self_ms["queue"] += s.measured_ms();
      continue;
    }
    by_thread[s.tid].push_back(&s);
    if (is_bench(s)) continue;
    library.emplace_back(s.start_ns, s.end_ns);
    if (s.cat == Cat::kernel) {
      if (!client_runs_kernels && client.count(s.tid) > 0) {
        ++out.pricing_launches;
      } else {
        ++out.launches;
        out.kernel_bytes += s.bytes;
      }
    }
    if (s.cat == Cat::service && s.name == "job") {
      out.job_busy_ms += s.measured_ms();
      job_threads.insert(s.tid);
    }
  }
  out.job_threads = static_cast<int>(job_threads.size());

  for (auto& [tid, spans] : by_thread) {
    struct Open {
      const SpanRecord* s;
      double child_ns;
    };
    std::vector<Open> stack;
    auto close_top = [&] {
      const Open o = stack.back();
      stack.pop_back();
      if (!is_bench(*o.s))
        out.self_ms[mdlsq::obs::name_of(o.s->cat)] +=
            (static_cast<double>(o.s->end_ns - o.s->start_ns) - o.child_ns) /
            1e6;
    };
    for (const SpanRecord* s : spans) {
      while (!stack.empty() && stack.back().s->end_ns <= s->start_ns)
        close_top();
      if (!stack.empty())
        stack.back().child_ns += static_cast<double>(
            std::min(s->end_ns, stack.back().s->end_ns) - s->start_ns);
      stack.push_back({s, 0.0});
    }
    while (!stack.empty()) close_top();
  }

  Intervals windows;
  for (std::size_t i = 0; i < phase.win_start_ns.size(); ++i)
    windows.emplace_back(phase.win_start_ns[i], phase.win_end_ns[i]);
  const double uncovered =
      covered_ns(windows) - overlap_ns(windows, std::move(library));
  out.self_ms["bench"] = uncovered / 1e6;
  return out;
}

}  // namespace perfbench
