// Reduces the traced phase's span snapshot to per-layer figures: self time
// per span category, launch counts and declared bytes split into real
// launches and dry-run pricing walks, service queue waits and worker busy
// time, and the benchmark's own share (op time covered by no library
// span).
#pragma once

#include <map>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench {

// The categories reported as obs.self_ms_per_op.<cat>; "bench" is op
// window time during which no library span is open on any thread.
extern const char* const kSelfCategories[10];

struct TraceSummary {
  std::map<std::string, double> self_ms;  // by category, summed over threads
  std::int64_t launches = 0;              // functional kernel launches
  std::int64_t pricing_launches = 0;      // dry-run pricing on the client
  std::int64_t kernel_bytes = 0;          // declared bytes of `launches`
  std::vector<double> queue_wait_ms;      // one per served job
  double job_busy_ms = 0;                 // summed service job spans
  int job_threads = 0;                    // threads that ran service jobs
  std::int64_t spans = 0, dropped = 0;
};

// Spans named "bench.*" are the benchmark's own (emitted around each
// public call on the client thread).  When the client does not execute
// kernels itself, kernel spans on its thread are pricing walks.
TraceSummary summarize(const mdlsq::obs::TraceSnapshot& snap,
                       const Phase& phase, bool client_runs_kernels);

}  // namespace perfbench
