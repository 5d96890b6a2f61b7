// perfbench — the wall-clock, end-to-end benchmark of the four job kinds
// (README.md).  One invocation runs one workload:
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--chrome-trace PATH] [--inject-wrong-op K]
//   perfbench --selftest
//
// --trace 0 sets the workload up seven times (setup_s is the median), runs
// ops for S seconds with tracing off, checks every answer, and prints the
// end-to-end metrics.  --trace 1 runs the layer probes and the host
// roofline, then S/2 seconds untraced and S/2 seconds under an
// obs::TraceSession, and prints the per-layer metrics.  The last line of
// stdout is one JSON object {correct, attempted, failed, metrics}; the
// exit code is 0 only when every answer was correct.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness.hpp"
#include "probes.hpp"
#include "trace_summary.hpp"

namespace perfbench {

int run_selftests();

namespace {

constexpr int kSetupRepeats = 7;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string chrome_trace;
  std::int64_t inject_wrong_op = -1;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

class Report {
 public:
  void add(std::string name, double value, const char* unit) {
    if (!std::isfinite(value)) {
      std::fprintf(stderr, "perfbench: %s is not finite; reported as 0\n",
                   name.c_str());
      value = 0;
    }
    metrics_.push_back({std::move(name), value, unit});
  }
  // Notes a per-layer metric that is 0 because its layer does not run.
  void absent(const std::string& name, const char* why) {
    notes_.push_back(name + ": " + why);
  }

  void print(bool correct, std::int64_t attempted, std::int64_t failed) const {
    for (const auto& n : notes_) std::printf("absent %s\n", n.c_str());
    for (const auto& m : metrics_)
      std::printf("%-36s %16.6g %s\n", m.name.c_str(), m.value, m.unit);
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (std::size_t i = 0; i < metrics_.size(); ++i)
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i ? ", " : "", metrics_[i].name.c_str(), metrics_[i].value,
                  metrics_[i].unit);
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

// Verdict of one phase: answers, the p90 sample rule, diagnostics.
bool phase_ok(const Phase& ph, const char* label) {
  bool ok = ph.failed == 0;
  for (const auto& f : ph.failures)
    std::fprintf(stderr, "perfbench: %s: FAILED %s\n", label, f.c_str());
  const std::int64_t beyond =
      samples_beyond(static_cast<std::int64_t>(ph.op_ms.size()), 0.9);
  if (beyond < 10) {
    std::fprintf(stderr,
                 "perfbench: %s: only %lld samples beyond p90 (need 10)\n",
                 label, static_cast<long long>(beyond));
    ok = false;
  }
  return ok;
}

int run_end_to_end(Workload& w, const Args& a) {
  std::vector<double> setup_s;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const std::int64_t t0 = mdlsq::obs::now_ns();
    w.setup();
    setup_s.push_back(static_cast<double>(mdlsq::obs::now_ns() - t0) / 1e9);
  }
  w.inject_wrong_answer(a.inject_wrong_op);
  Phase ph = w.run(a.seconds, kMinOps);
  w.check(ph);
  const bool ok = phase_ok(ph, a.workload.c_str());

  const auto n = static_cast<double>(ph.op_ms.size());
  const double limit = w.latency_limit_ms();
  double on_time = 0;
  for (double ms : ph.op_ms) on_time += ms <= limit ? 1 : 0;
  on_time = std::max(0.0, on_time - static_cast<double>(ph.failed));

  Report r;
  r.add("op_ms_p50", windowed_percentile(ph.op_ms, 0.5), "ms");
  r.add("op_ms_p90", windowed_percentile(ph.op_ms, 0.9), "ms");
  r.add("ops_per_s", ratio(n, ph.wall_s), "1/s");
  r.add("ok_frac",
        1.0 - ratio(static_cast<double>(ph.failed),
                    static_cast<double>(ph.attempted)),
        "ratio");
  r.add("on_time_frac", ratio(on_time, static_cast<double>(ph.attempted)),
        "ratio");
  r.add("modeled_ms_per_op",
        ratio(ph.c.modeled_ms, static_cast<double>(ph.attempted)), "ms");
  r.add("setup_s", median(setup_s), "s");
  r.add("peak_rss_mb", peak_rss_mb(), "MB");
  std::printf("%s seed %llu: %zu ops in %.2f s, latency limit %.0f ms\n"
              "latency deciles (ms):",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              ph.op_ms.size(), ph.wall_s, limit);
  for (int d = 1; d <= 9; ++d)
    std::printf(" %.3g", percentile(ph.op_ms, d / 10.0));
  std::printf("\n");
  r.print(ok, ph.attempted, ph.failed);
  return ok ? 0 : 1;
}

int run_per_layer(Workload& w, const Args& a) {
  const Probes pr = run_probes();
  w.setup();
  w.inject_wrong_answer(a.inject_wrong_op);
  Phase u = w.run(a.seconds / 2, kMinOps);
  w.check(u);

  mdlsq::obs::TraceSnapshot snap;
  Phase t;
  {
    // Records are stored as they arrive (nothing is preallocated), so a
    // large per-thread capacity costs only what the phase emits.
    mdlsq::obs::TraceSession session(mdlsq::obs::TraceOptions{1u << 26});
    t = w.run(a.seconds / 2, kMinOps);
    snap = session.snapshot();
  }
  w.check(t);
  if (!a.chrome_trace.empty())
    mdlsq::obs::write_chrome_trace(a.chrome_trace, snap);
  const TraceSummary s = summarize(snap, t, w.client_runs_kernels());

  bool ok = phase_ok(u, "untraced phase") && phase_ok(t, "traced phase");
  if (s.dropped != 0) {
    std::fprintf(stderr, "perfbench: %lld spans dropped\n",
                 static_cast<long long>(s.dropped));
    ok = false;
  }

  const Counters& c = u.c;
  const auto un = static_cast<double>(u.attempted);
  const auto tn = static_cast<double>(t.attempted);
  const double mean_op_ms =
      ratio(sum(u.op_ms), static_cast<double>(u.op_ms.size()));
  const double flops_per_op = ratio(c.device_dp_flops, un);
  const double host_gflops =
      ratio(c.device_dp_flops + c.host_dp_flops, u.wall_s) / 1e9;
  const int limbs[3] = {2, 4, 8};
  double md_est_ms = 0, tally_est_ms = 0;
  for (int k = 0; k < 3; ++k) {
    const auto it = c.ops_by_limbs.find(limbs[k]);
    if (it == c.ops_by_limbs.end()) continue;
    const auto& plain = pr.md[static_cast<std::size_t>(k)];
    const auto& tallied = pr.md_tallied[static_cast<std::size_t>(k)];
    md_est_ms += plain.ns_for(it->second) / 1e6 / un;
    tally_est_ms +=
        (tallied.ns_for(it->second) - plain.ns_for(it->second)) / 1e6 / un;
  }

  Report r;
  // md
  r.add("md.flops_per_op", flops_per_op, "count");
  r.add("md.host_gflops", host_gflops, "GFLOP/s");
  r.add("md.peak_gflops", pr.peak_gflops, "GFLOP/s");
  r.add("md.peak_gflops_1t", pr.peak_gflops_1t, "GFLOP/s");
  r.add("md.frac_of_peak", ratio(host_gflops, pr.peak_gflops), "ratio");
  r.add("md.ns_per_op.d2", pr.md[0].mean(), "ns");
  r.add("md.ns_per_op.d4", pr.md[1].mean(), "ns");
  r.add("md.ns_per_op.d8", pr.md[2].mean(), "ns");
  r.add("md.tally_overhead_frac",
        ratio(pr.md_tallied[0].mean(), pr.md[0].mean()) - 1, "ratio");
  r.add("md.overhead_d4_d2", pr.overhead_d4_d2, "ratio");
  r.add("md.overhead_d8_d4", pr.overhead_d8_d4, "ratio");
  r.add("md.est_share_of_op", ratio(md_est_ms, mean_op_ms), "ratio");
  r.add("md.tally_est_share_of_op", ratio(tally_est_ms, mean_op_ms), "ratio");

  // device
  const double launches = ratio(static_cast<double>(s.launches), tn);
  const double pricing = ratio(static_cast<double>(s.pricing_launches), tn);
  const double bytes = ratio(static_cast<double>(s.kernel_bytes), tn);
  const double cgma = ratio(flops_per_op, bytes);
  r.add("device.launches_per_op", launches, "count");
  r.add("device.pricing_launches_per_op", pricing, "count");
  if (pricing == 0)
    r.absent("device.pricing_launches_per_op",
             "no dry-run pricing walk runs on the client thread");
  r.add("device.launch_us", pr.launch_us, "us");
  r.add("device.bytes_per_op", bytes, "B");
  r.add("device.cgma", cgma, "flop/B");
  r.add("device.host_bw_gbs", pr.triad.gbs, "GB/s");
  r.add("device.triad_array_mb", pr.triad.array_mb, "MB");
  r.add("device.llc_mb", pr.triad.llc_mb, "MB");
  r.add("device.roofline_gflops", std::min(pr.peak_gflops, pr.triad.gbs * cgma),
        "GFLOP/s");
  r.add("device.transfer_ms_per_op", ratio(c.transfer_ms, un), "ms");
  r.add("device.est_share_of_op",
        ratio((launches + pricing) * pr.launch_us / 1e3, mean_op_ms), "ratio");

  // util
  const int width = w.tile_parallelism();
  r.add("util.fanout_us", pr.fanout_us, "us");
  r.add("util.est_share_of_op",
        width > 1 ? ratio(launches * pr.fanout_us / 1e3, mean_op_ms) : 0.0,
        "ratio");
  if (width <= 1)
    r.absent("util.est_share_of_op", "tile parallelism 1: no fan-out");

  // core
  const char* dn[3] = {"d2", "d4", "d8"};
  for (int k = 0; k < 3; ++k) {
    r.add(std::string("core.qr_ms.") + dn[k],
          pr.qr_ms[static_cast<std::size_t>(k)], "ms");
    r.add(std::string("core.backsub_ms.") + dn[k],
          pr.backsub_ms[static_cast<std::size_t>(k)], "ms");
  }
  for (int k = 0; k < 3; ++k) {
    std::vector<double> ms;
    for (std::size_t i = 0; i < u.op_ms.size(); ++i)
      if (u.op_limbs[i] == limbs[k]) ms.push_back(u.op_ms[i]);
    const std::string name = std::string("core.lsq_ms_p50.") + dn[k];
    r.add(name, percentile(ms, 0.5), "ms");
    if (ms.empty())
      r.absent(name, "only dense_lsq issues single-precision solve ops");
  }
  const bool ladders = c.ladders > 0;
  r.add("core.rungs_per_op", ratio(static_cast<double>(c.rungs), un), "count");
  r.add("core.refactorizations_per_op",
        ratio(static_cast<double>(c.refactorizations), un), "count");
  r.add("core.refine_iters_per_op",
        ratio(static_cast<double>(c.refine_iters), un), "count");
  r.add("core.first_rung_accept_frac",
        ratio(static_cast<double>(c.first_rung_accepts),
              static_cast<double>(c.ladders)),
        "ratio");
  r.add("core.host_ops_frac",
        ratio(static_cast<double>(c.host_md_ops),
              static_cast<double>(c.host_md_ops + c.device_md_ops)),
        "ratio");
  if (!ladders)
    for (const char* m : {"core.rungs_per_op", "core.refactorizations_per_op",
                          "core.refine_iters_per_op",
                          "core.first_rung_accept_frac", "core.host_ops_frac"})
      r.absent(m, "no precision ladder runs in this workload");
  double slot_max = 0, slot_sum = 0;
  for (double ms : c.slot_ms) {
    slot_max = std::max(slot_max, ms);
    slot_sum += ms;
  }
  r.add("core.slot_imbalance",
        ratio(slot_max, slot_sum / static_cast<double>(std::max<std::size_t>(
                                       1, c.slot_ms.size()))),
        "ratio");

  // path
  const auto paths = static_cast<double>(c.paths);
  r.add("path.steps_per_path", ratio(static_cast<double>(c.steps), paths),
        "count");
  r.add("path.halvings_per_path", ratio(static_cast<double>(c.halvings), paths),
        "count");
  r.add("path.correction_solves_per_path",
        ratio(static_cast<double>(c.corrections), paths), "count");
  r.add("path.escalations_per_path",
        ratio(static_cast<double>(c.escalations), paths), "count");
  r.add("path.converged_frac",
        ratio(static_cast<double>(c.converged_paths), paths), "ratio");
  if (c.paths == 0)
    r.absent("path.*", "no path is tracked in this workload");
  else if (!c.step_stats)
    r.absent("path.halvings_per_path, path.escalations_per_path",
             "a service Response carries no per-step stats");

  // serve
  const bool served = s.job_threads > 0;
  r.add("serve.queue_wait_ms_p50", percentile(s.queue_wait_ms, 0.5), "ms");
  r.add("serve.queue_wait_ms_p90", percentile(s.queue_wait_ms, 0.9), "ms");
  r.add("serve.busy_frac",
        ratio(s.job_busy_ms, s.job_threads * t.wall_s * 1e3), "ratio");
  r.add("serve.cache_hit_ratio",
        ratio(static_cast<double>(c.cache_hits),
              static_cast<double>(c.cache_hits + c.cache_misses)),
        "ratio");
  r.add("serve.evictions_per_op", ratio(static_cast<double>(c.evictions), un),
        "count");
  r.add("serve.rejected_frac", ratio(static_cast<double>(c.rejected), un),
        "ratio");
  if (!served) r.absent("serve.*", "no service runs in this workload");
  r.add("bench.gen_lag_ms_p90", percentile(u.gen_lag_ms, 0.9), "ms");
  if (u.gen_lag_ms.empty())
    r.absent("bench.gen_lag_ms_p90", "closed loop: no arrival schedule");

  // obs
  for (const char* cat : kSelfCategories) {
    const std::string name = std::string("obs.self_ms_per_op.") + cat;
    const double ms = ratio(s.self_ms.at(cat), tn);
    r.add(name, ms, "ms");
    if (ms == 0) r.absent(name, "no span of this category in this workload");
  }
  r.add("obs.trace_overhead_frac",
        ratio(percentile(t.op_ms, 0.5), percentile(u.op_ms, 0.5)) - 1, "ratio");
  r.add("obs.spans_dropped", static_cast<double>(s.dropped), "count");

  std::printf("%s seed %llu: %zu untraced + %zu traced ops, %lld spans\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              u.op_ms.size(), t.op_ms.size(),
              static_cast<long long>(s.spans));
  r.print(ok, u.attempted + t.attempted, u.failed + t.failed);
  return ok ? 0 : 1;
}

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string_view k(argv[i]);
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    if (k == "--workload")
      a.workload = v;
    else if (k == "--seed")
      a.seed = std::strtoull(v, nullptr, 10);
    else if (k == "--seconds")
      a.seconds = std::strtod(v, nullptr);
    else if (k == "--trace")
      a.trace = std::string_view(v) == "1";
    else if (k == "--chrome-trace")
      a.chrome_trace = v;
    else if (k == "--inject-wrong-op")
      a.inject_wrong_op = std::strtoll(v, nullptr, 10);
    else
      return false;
  }
  return !a.workload.empty() && a.seconds > 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc == 2 && std::string_view(argv[1]) == "--selftest")
    return run_selftests();
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--chrome-trace PATH] [--inject-wrong-op K]\n"
                 "       perfbench --selftest\n");
    return 2;
  }
  try {
    auto w = make_workload(a.workload, a.seed);
    return a.trace ? run_per_layer(*w, a) : run_end_to_end(*w, a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
