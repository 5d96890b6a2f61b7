// Self-tests of the harness itself (perfbench --selftest): the p90 sample
// rule, windowed percentiles under a burst, open-loop due-time accounting
// under an injected stall, seed determinism of every workload's inputs,
// and that an injected wrong answer is counted as a failure.  The check that every printed metric is
// named in BENCHMARK.json lives in selftest.py, which also runs this.
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>

#include "harness.hpp"

namespace perfbench {
namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

void test_p90_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  expect(percentile(v, 0.5) == 50 && percentile(v, 0.9) == 90,
         "nearest-rank p50/p90 of 1..100 are 50/90");
  expect(samples_beyond(100, 0.9) == 10, "100 samples leave 10 beyond p90");
  expect(samples_beyond(99, 0.9) == 9, "99 samples leave only 9 beyond p90");
  expect(samples_beyond(kMinOps, 0.9) >= 10,
         "the minimum op count satisfies the p90 rule");
  expect(percentile({}, 0.9) == 0, "percentile of no samples is 0");
}

void test_windowed_percentile() {
  // Ten windows of 1..50; a stall makes one window's ops 100x slower.
  std::vector<double> v;
  for (int w = 0; w < 10; ++w)
    for (int i = 1; i <= 50; ++i) v.push_back(w == 3 ? 100.0 * i : i);
  expect(windowed_percentile(v, 0.9, 50) == 45 &&
             windowed_percentile(v, 0.5, 50) == 25,
         "a burst in one window does not move the windowed p50/p90");
  expect(percentile(v, 0.9) > 45, "the same burst moves the whole-run p90");
  const std::vector<double> few(v.begin(), v.begin() + 99);
  expect(windowed_percentile(few, 0.9, 50) == percentile(few, 0.9),
         "under two full windows the windowed percentile is the plain one");
}

void test_open_loop_stall() {
  // Five requests due every 10 ms; sending request 1 stalls the sender for
  // 100 ms.  Requests 2..4 go out late, and latency measured from the due
  // time must charge them the stall (latency from the send time would not).
  const std::vector<double> due = {0, 10, 20, 30, 40};
  const OpenLoopLog log = run_open_loop(due, [](std::size_t i) {
    if (i == 1) std::this_thread::sleep_for(std::chrono::milliseconds(100));
  });
  bool never_early = true;
  for (std::size_t i = 0; i < due.size(); ++i)
    never_early = never_early && log.sent_ns[i] >= log.due_ns[i];
  expect(never_early, "no request is sent before it is due");
  const double late2 =
      static_cast<double>(log.sent_ns[2] - log.due_ns[2]) / 1e6;
  const double late4 =
      static_cast<double>(log.sent_ns[4] - log.due_ns[4]) / 1e6;
  expect(late2 >= 85 && late4 >= 65,
         "a stall makes every later request late (" + std::to_string(late2) +
             ", " + std::to_string(late4) + " ms)");
  const double lag0 = static_cast<double>(log.sent_ns[0] - log.due_ns[0]) / 1e6;
  expect(lag0 < 20, "requests before the stall are on time");

  const auto a = poisson_schedule(7, 50.0, 2.0, 100);
  const auto b = poisson_schedule(7, 50.0, 2.0, 100);
  const auto c = poisson_schedule(8, 50.0, 2.0, 100);
  expect(a == b && a != c, "arrival schedules are a function of the seed");
  expect(a.size() >= 100, "a schedule holds at least the minimum op count");
}

void test_seed_determinism() {
  for (const char* name : kWorkloads) {
    const auto a = make_workload(name, 11)->input_digest();
    const auto b = make_workload(name, 11)->input_digest();
    const auto c = make_workload(name, 12)->input_digest();
    expect(a == b && a != c,
           std::string(name) + ": inputs are a function of the seed");
  }
}

void test_injected_wrong_answer() {
  for (const char* name : kWorkloads) {
    auto w = make_workload(name, 5);
    w->setup();
    Phase clean = w->run(0.0, 3);
    w->check(clean);
    w->inject_wrong_answer(1);
    Phase bad = w->run(0.0, 3);
    w->check(bad);
    for (const auto& f : clean.failures)
      std::printf("     unexpected failure: %s\n", f.c_str());
    expect(clean.failed == 0 && bad.failed == 1 && bad.attempted >= 3,
           std::string(name) + ": an injected wrong answer counts as failed (" +
               std::to_string(clean.failed) + ", " +
               std::to_string(bad.failed) + ")");
  }
}

}  // namespace

int run_selftests() {
  test_p90_rule();
  test_windowed_percentile();
  test_open_loop_stall();
  test_seed_determinism();
  test_injected_wrong_answer();
  std::printf("%s: %d failure(s)\n", g_failures ? "FAILED" : "passed",
              g_failures);
  return g_failures ? 1 : 0;
}

}  // namespace perfbench
