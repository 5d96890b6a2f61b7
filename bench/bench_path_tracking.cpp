// Path-tracking perf trajectory: the end-to-end predictor-corrector
// scenario of src/path/ (DESIGN.md §7), joining the CI regression gate
// alongside the kernel microbenches of bench_suite.cpp.  Emits
// BENCH_path.json (argv[1], default ./BENCH_path.json; argv[2] overrides
// the threaded width, default 4), merged into tools/check_bench.py's gate
// via --extra against the path cases of bench/baseline.json.
//
// Per single-path case (kind "track", rows = dimension, cols = series
// order): a rational path with a true pole at t = 2 is tracked to t = 1
// sequentially and at tile-parallelism N; recorded are the modeled kernel
// time of the full tracking schedule (deterministic, machine-independent)
// and the seq/par wall-clock ratio, with bit-identity and exact tally
// conservation enforced by the binary itself.  The batched case (kind
// "trackbatch") compares a width-1 against a width-2 DevicePool run of
// the same path set: bit_identical there means the batched results are
// limb-identical to the sequential single-path solves, the batching
// guarantee of DESIGN.md §2/§7.
//
// `--report r.json` additionally dumps the width-1 batched run's
// aggregate util::BatchReport as machine-readable JSON (DESIGN.md §12)
// — the same totals the human table prints, for downstream tooling.
#include <cstdio>
#include <cstdlib>
#include <random>
#include <string>
#include <string_view>
#include <vector>

#include "bench_util.hpp"
#include "path/batched_tracker.hpp"
#include "path/generate.hpp"
#include "util/table.hpp"

using namespace mdlsq;
using bench::now_ms;

namespace {

struct CaseResult {
  std::string kind;       // "track" | "trackbatch"
  std::string precision;  // Table 1 row name
  int rows = 0, cols = 0, tile = 0;
  double modeled_kernel_ms = 0;
  double seq_wall_ms = 0, par_wall_ms = 0;
  bool identical = true;
  bool tally_ok = true;
  double speedup() const {
    return par_wall_ms > 0 ? seq_wall_ms / par_wall_ms : 0;
  }
};

// The shared rational-path family (path/generate.hpp): the bench tracks
// the same scenario the tests pin and the example demonstrates.
template <int NH>
path::Homotopy<md::mdreal<NH>> rational_homotopy(int m, std::uint64_t seed) {
  return path::rational_path_homotopy<md::mdreal<NH>>(m, 2.0, seed);
}

template <int NH>
bool track_tallies_exact(const path::TrackResult<NH>& r) {
  for (const auto& s : r.steps)
    for (const auto& rg : s.rungs)
      if (!(rg.measured == rg.analytic)) return false;
  return true;
}

template <int NH>
CaseResult track_case(int m, int order, int tile, int width) {
  path::TrackOptions opt;
  opt.tile = tile;
  opt.order = order;
  opt.tol = 1e-20;
  // Pin the ladder to the case's precision so each row prices a genuine
  // dNH tracking schedule (the benign path would otherwise finish its
  // whole run on the d2 rung regardless of the target type).
  opt.rungs = {NH};
  auto h = rational_homotopy<NH>(m, 0x5eed7 + static_cast<std::uint64_t>(m));

  const double t0 = now_ms();
  auto seq = path::track<NH>(device::volta_v100(), h, opt);
  const double t1 = now_ms();

  path::TrackOptions popt = opt;
  popt.parallelism = width;
  const double t2 = now_ms();
  auto par = path::track<NH>(device::volta_v100(), h, popt);
  const double t3 = now_ms();

  CaseResult r{"track", md::name_of(md::Precision(NH)), m, order, tile,
               seq.kernel_ms(), t1 - t0, t3 - t2};
  r.tally_ok = track_tallies_exact(seq) && track_tallies_exact(par) &&
               seq.device_analytic() == par.device_analytic();
  r.identical = seq.converged && par.converged &&
                par.steps.size() == seq.steps.size();
  for (std::size_t i = 0; i < seq.x.size() && r.identical; ++i)
    r.identical = blas::bit_identical(seq.x[i], par.x[i]);
  return r;
}

CaseResult batch_case(int m, int order, int tile, int paths,
                      const std::string& report_path) {
  path::BatchedTrackOptions opt;
  opt.track.tile = tile;
  opt.track.order = order;
  opt.track.tol = 1e-20;
  opt.policy = core::ShardPolicy::greedy_by_modeled_time;

  std::vector<path::TrackProblem<2>> batch;
  std::vector<path::TrackResult<2>> singles;
  for (int i = 0; i < paths; ++i) {
    auto h = rational_homotopy<2>(m, 0xba7c0 + static_cast<std::uint64_t>(i));
    singles.push_back(path::track<2>(device::volta_v100(), h, opt.track));
    batch.push_back(path::TrackProblem<2>::functional(std::move(h)));
  }

  auto pool1 = core::DevicePool::homogeneous(device::volta_v100(), 1);
  const double t0 = now_ms();
  auto one = path::batched_track<2>(pool1, batch, opt);
  const double t1 = now_ms();

  if (!report_path.empty()) {
    if (std::FILE* rf = std::fopen(report_path.c_str(), "w")) {
      one.report.write_json(rf);
      std::fclose(rf);
      std::printf("wrote %s\n", report_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", report_path.c_str());
    }
  }

  auto pool2 = core::DevicePool::homogeneous(device::volta_v100(), 2);
  const double t2 = now_ms();
  auto two = path::batched_track<2>(pool2, batch, opt);
  const double t3 = now_ms();

  CaseResult r{"trackbatch", md::name_of(md::Precision::d2), m, order, tile,
               one.report.kernel_ms, t1 - t0, t3 - t2};
  md::OpTally sum;
  for (std::size_t i = 0; i < batch.size() && r.identical; ++i) {
    const auto& b1 = one.paths[i].result;
    const auto& b2 = two.paths[i].result;
    sum += singles[i].device_analytic();
    for (std::size_t j = 0; j < singles[i].x.size() && r.identical; ++j)
      r.identical = blas::bit_identical(singles[i].x[j], b1.x[j]) &&
                    blas::bit_identical(singles[i].x[j], b2.x[j]);
  }
  r.tally_ok = one.report.tally == sum && two.report.tally == sum;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_path.json";
  std::string report_path;
  int width = 4, positional = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--report" && i + 1 < argc) {
      report_path = argv[++i];
    } else if (positional == 0) {
      out_path = argv[i];
      ++positional;
    } else if (positional == 1) {
      width = std::atoi(argv[i]);
      ++positional;
    }
  }

  std::vector<CaseResult> cases;
  cases.push_back(track_case<2>(48, 10, 8, width));
  cases.push_back(track_case<4>(32, 10, 8, width));
  cases.push_back(track_case<8>(24, 8, 8, width));
  cases.push_back(batch_case(24, 8, 8, 6, report_path));

  bench::header("power-series path tracking (V100 model)");
  std::printf("threads: %d (hardware_concurrency %u)\n\n", width,
              std::thread::hardware_concurrency());
  util::Table t({"kind", "prec", "dim", "order", "tile", "modeled ms",
                 "seq wall ms", "par wall ms", "speedup", "identical"});
  for (const auto& c : cases)
    t.add_row({c.kind, c.precision, std::to_string(c.rows),
               std::to_string(c.cols), std::to_string(c.tile),
               util::fmt2(c.modeled_kernel_ms), util::fmt2(c.seq_wall_ms),
               util::fmt2(c.par_wall_ms), util::fmt2(c.speedup()),
               c.identical && c.tally_ok ? "yes" : "NO"});
  t.print();

  std::FILE* f = std::fopen(out_path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\"bench\":\"path\",\"device\":\"%s\",\"threads\":%d,"
               "\"hardware_concurrency\":%u,\"cases\":[",
               device::volta_v100().name.c_str(), width,
               std::thread::hardware_concurrency());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    std::fprintf(f,
                 "%s{\"kind\":\"%s\",\"precision\":\"%s\",\"rows\":%d,"
                 "\"cols\":%d,\"tile\":%d,\"modeled_kernel_ms\":%.6f,"
                 "\"seq_wall_ms\":%.3f,\"par_wall_ms\":%.3f,"
                 "\"speedup\":%.3f,\"bit_identical\":%s,"
                 "\"tally_conserved\":%s}",
                 i ? "," : "", c.kind.c_str(), c.precision.c_str(), c.rows,
                 c.cols, c.tile, c.modeled_kernel_ms, c.seq_wall_ms,
                 c.par_wall_ms, c.speedup(), c.identical ? "true" : "false",
                 c.tally_ok ? "true" : "false");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());

  // Correctness gate: bit-identity and tally conservation are hard
  // failures; throughput is gated by tools/check_bench.py in CI.
  for (const auto& c : cases)
    if (!c.identical || !c.tally_ok) {
      std::printf("UNEXPECTED: tracking diverged on %s %s\n", c.kind.c_str(),
                  c.precision.c_str());
      return 1;
    }
  return 0;
}
