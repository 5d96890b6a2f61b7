// The unified perf-trajectory benchmark: sequential vs threaded
// functional runs of the blocked QR, the tiled back substitution and the
// full least-squares pipeline, across d2/d4/d8, on the V100 device model,
// plus the staged-vs-interleaved layout cases whose staged_speedup ratio
// locks the staged-resident layout win into the trajectory (DESIGN.md
// §8).  Emits BENCH_suite.json (argv[1], default ./BENCH_suite.json;
// argv[2] overrides the threaded width, default 4) — THE artifact CI
// tracks: tools/check_bench.py gates every push against
// bench/baseline.json.
//
// `--trace out.json` additionally records one TraceSession over a
// post-cases sampler (a small adaptive ladder plus a short service
// burst, so every span category appears) and writes it as Chrome
// trace_event JSON (DESIGN.md §12) — the artifact CI validates with
// tools/trace_summarize.py.  The timed cases above always run WITHOUT a
// session installed; the "trace" sanity case separately pins that a live
// session observes without perturbing (bit-identity, exact tallies,
// identical modeled times).
//
// Two kinds of numbers per case (DESIGN.md §5-§6):
//   * modeled_kernel_ms — the device model's price of the launch
//     schedule.  Deterministic and machine-independent, so the CI gate
//     compares it directly against the baseline.
//   * seq/par wall ms — real host wall-clock of the functional run at
//     parallelism 1 and N.  Machine-dependent, so the gate tracks only
//     their RATIO (the threading speedup), which is comparable across
//     hosts with the same core budget.
// The binary itself fails only on correctness: threaded results must be
// limb-identical to sequential and every tally measured == declared.
//
// The host is shared, so a wall ratio can fail for want of free cores.
// A spin probe before the first case and after the last records the
// effective parallelism (probe_before / probe_after in the artifact);
// tools/check_bench.py prints both next to any failing wall ratio.
#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "blas/generate.hpp"
#include "core/adaptive_lsq.hpp"
#include "core/batch_runner.hpp"
#include "core/least_squares.hpp"
#include "core/refinement.hpp"
#include "md/simd/dispatch.hpp"
#include "obs/export.hpp"
#include "obs/trace.hpp"
#include "path/generate.hpp"
#include "serve/service.hpp"
#include "util/thread_pool.hpp"

using namespace mdlsq;
using bench::now_ms;

namespace {

// The host's effective parallelism right now: hardware_concurrency
// threads spin for about 200 ms; the reading is their summed thread CPU
// time over the wall time (about the core count on an idle host, less
// when other tenants hold cores).
double spin_probe() {
  const int n = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  auto thread_cpu_ms = [] {
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
  };
  std::atomic<long long> cpu_us{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> spinners;
  const double t0 = now_ms();
  for (int k = 0; k < n; ++k)
    spinners.emplace_back([&] {
      while (!go.load()) {
      }
      const double c0 = thread_cpu_ms();
      volatile double sink = 0.0;
      while (now_ms() - t0 < 200.0) sink = sink + 1.0;
      cpu_us += static_cast<long long>((thread_cpu_ms() - c0) * 1e3);
    });
  go = true;
  for (auto& t : spinners) t.join();
  const double wall = now_ms() - t0;
  return wall > 0.0 ? cpu_us.load() / 1e3 / wall : 0.0;
}

struct CaseResult {
  std::string kind;  // "qr" | "backsub" | "lsq" | "layout" | "simd" | "trace"
  std::string precision;  // Table 1 row name
  int rows = 0, cols = 0, tile = 0;
  double modeled_kernel_ms = 0;
  double seq_wall_ms = 0, par_wall_ms = 0;
  bool identical = true;    // threaded limb-identical to sequential
  bool tally_ok = true;     // measured == analytic on both devices
  // Layout cases only: interleaved wall / staged-resident wall (the
  // staged layout win the CI gate locks in; 0 elsewhere).
  double staged_speedup = 0;
  // Simd cases only: the forced kernel table ("avx2", ...; joins the
  // case key in check_bench) and forced-scalar wall / forced-ISA wall.
  std::string isa;
  double simd_speedup = 0;
  double speedup() const { return par_wall_ms > 0 ? seq_wall_ms / par_wall_ms : 0; }
};

bool tallies_exact(const device::Device& dev) {
  for (const auto& s : dev.stages())
    if (!(s.measured == s.analytic)) return false;
  return true;
}

template <class T>
device::Device make_dev() {
  return device::Device(device::volta_v100(),
                        md::Precision(blas::scalar_traits<T>::limbs),
                        device::ExecMode::functional);
}

template <class T>
CaseResult qr_case(int dim, int tile, util::ThreadPool& pool, int width) {
  std::mt19937_64 gen(0x5eed0 + dim);
  auto a = blas::random_matrix<T>(dim, dim, gen);

  auto seq = make_dev<T>();
  const double t0 = now_ms();
  auto fs = core::blocked_qr(seq, a, tile);
  const double t1 = now_ms();

  auto par = make_dev<T>();
  par.set_parallelism(&pool, width);
  const double t2 = now_ms();
  auto fp = core::blocked_qr(par, a, tile);
  const double t3 = now_ms();

  CaseResult r{"qr", md::name_of(seq.precision()), dim, dim, tile,
               seq.kernel_ms(), t1 - t0, t3 - t2};
  r.tally_ok = tallies_exact(seq) && tallies_exact(par);
  for (int i = 0; i < dim && r.identical; ++i)
    for (int j = 0; j < dim; ++j)
      if (!blas::bit_identical(fs.r(i, j), fp.r(i, j)) ||
          !blas::bit_identical(fs.q(i, j), fp.q(i, j))) {
        r.identical = false;
        break;
      }
  return r;
}

// A well-conditioned random upper triangular, built directly in O(n^2)
// (blas::random_upper_triangular runs a dense LU, which would dwarf the
// timed solve at bench dimensions): random strict upper triangle, and a
// diagonal bounded away from zero.
template <class T, class Urbg>
blas::Matrix<T> bench_triangular(int n, Urbg& gen) {
  auto u = blas::Matrix<T>(n, n);
  std::uniform_real_distribution<double> entry(-1.0, 1.0);
  std::uniform_real_distribution<double> diag(1.0, 2.0);
  for (int i = 0; i < n; ++i) {
    u(i, i) = T(entry(gen) < 0 ? -diag(gen) : diag(gen));
    for (int j = i + 1; j < n; ++j) u(i, j) = T(entry(gen));
  }
  return u;
}

template <class T>
CaseResult backsub_case(int nt, int tile, util::ThreadPool& pool, int width) {
  const int dim = nt * tile;
  std::mt19937_64 gen(0x5eed1 + dim);
  auto u = bench_triangular<T>(dim, gen);
  auto b = blas::random_vector<T>(dim, gen);

  auto seq = make_dev<T>();
  const double t0 = now_ms();
  auto xs = core::tiled_back_sub(seq, u, b, nt, tile);
  const double t1 = now_ms();

  auto par = make_dev<T>();
  par.set_parallelism(&pool, width);
  const double t2 = now_ms();
  auto xp = core::tiled_back_sub(par, u, b, nt, tile);
  const double t3 = now_ms();

  CaseResult r{"backsub", md::name_of(seq.precision()), dim, dim, tile,
               seq.kernel_ms(), t1 - t0, t3 - t2};
  r.tally_ok = tallies_exact(seq) && tallies_exact(par);
  for (int i = 0; i < dim; ++i)
    if (!blas::bit_identical(xs[std::size_t(i)], xp[std::size_t(i)])) {
      r.identical = false;
      break;
    }
  return r;
}

template <class T>
CaseResult lsq_case(int rows, int cols, int tile, util::ThreadPool& pool,
                    int width) {
  std::mt19937_64 gen(0x5eed2 + rows);
  auto a = blas::random_matrix<T>(rows, cols, gen);
  auto b = blas::random_vector<T>(rows, gen);

  auto seq = make_dev<T>();
  const double t0 = now_ms();
  auto rs = core::least_squares(seq, a, b, tile);
  const double t1 = now_ms();

  auto par = make_dev<T>();
  par.set_parallelism(&pool, width);
  const double t2 = now_ms();
  auto rp = core::least_squares(par, a, b, tile);
  const double t3 = now_ms();

  CaseResult r{"lsq", md::name_of(seq.precision()), rows, cols, tile,
               seq.kernel_ms(), t1 - t0, t3 - t2};
  r.tally_ok = tallies_exact(seq) && tallies_exact(par);
  for (int j = 0; j < cols; ++j)
    if (!blas::bit_identical(rs.x[std::size_t(j)], rp.x[std::size_t(j)])) {
      r.identical = false;
      break;
    }
  return r;
}

// Staged-resident vs interleaved substrate (DESIGN.md §8): the factor-
// reusing QR solve workload of the adaptive ladder and the path tracker —
// `solves` correction solves (the Q^H r gemm panel + the triangular
// solve) against cached factors, a full m-by-m unitary factor and the
// c-by-c leading triangle.  The STAGED path stages the factors once and
// every launch reads them resident; the INTERLEAVED path keeps them in
// host array-of-structs storage, so every launch pays the gather/scatter
// round trip into the planar form the kernels consume — the per-launch
// conversion cost the layout ablation (bench_ablation_layout) quantifies
// and the staged-resident refactor removed.  Both paths run the
// IDENTICAL kernels in the identical order, so the results must be
// limb-identical; the wall ratio is the staged_speedup the CI gate locks
// into the perf trajectory.
template <class T>
CaseResult layout_case(int m, int c, int solves, int tile) {
  std::mt19937_64 gen(0x5eed3 + m);
  auto q = blas::random_matrix<T>(m, m, gen);
  auto rtop_full = bench_triangular<T>(c, gen);
  blas::Matrix<T> rtop(c, c);  // upper triangle only, zeros below
  for (int i = 0; i < c; ++i)
    for (int j = i; j < c; ++j) rtop(i, j) = rtop_full(i, j);
  std::vector<blas::Vector<T>> residuals;
  for (int s = 0; s < solves; ++s)
    residuals.push_back(blas::random_vector<T>(m, gen));

  // Staged-resident: factors staged once, launches read them resident.
  auto sdev = make_dev<T>();
  std::vector<blas::Vector<T>> xs;
  const double t0 = now_ms();
  {
    auto sq = sdev.stage(q);
    auto srt = sdev.stage(rtop);
    for (int s = 0; s < solves; ++s)
      xs.push_back(core::correction_solve_staged_run<T>(
          sdev, &sq, &srt, std::span<const T>(residuals[std::size_t(s)]), m,
          c, tile));
  }
  const double t1 = now_ms();

  // Interleaved: host AoS factors, per-launch gather into planar form.
  auto idev = make_dev<T>();
  std::vector<blas::Vector<T>> xi;
  const double t2 = now_ms();
  for (int s = 0; s < solves; ++s) {
    auto sq = idev.stage(q);
    auto srt = idev.stage(rtop);
    xi.push_back(core::correction_solve_staged_run<T>(
        idev, &sq, &srt, std::span<const T>(residuals[std::size_t(s)]), m, c,
        tile));
  }
  const double t3 = now_ms();

  CaseResult r{"layout", md::name_of(sdev.precision()), m, c, tile,
               sdev.kernel_ms(), t3 - t2, t1 - t0};
  r.staged_speedup = r.speedup();
  r.tally_ok = tallies_exact(sdev) && tallies_exact(idev);
  for (int s = 0; s < solves && r.identical; ++s)
    for (int j = 0; j < c; ++j)
      if (!blas::bit_identical(xs[std::size_t(s)][std::size_t(j)],
                               xi[std::size_t(s)][std::size_t(j)])) {
        r.identical = false;
        break;
      }
  return r;
}

// Explicit-SIMD ablation (DESIGN.md §9): the identical sequential
// blocked QR run twice, once with the kernel table forced to the scalar
// fallback and once forced to `isa`.  Both runs route through the same
// fused N-limb kernels (blas/fused.hpp), so the factors must be
// limb-identical — the dispatch bit-identity contract, re-checked here on
// the bench shapes — and the wall ratio is the pure vector-width win the
// CI gate floors via --min-simd-speedup.
template <class T>
CaseResult simd_case(int dim, int tile, md::simd::Isa isa) {
  std::mt19937_64 gen(0x5eed4 + dim);
  auto a = blas::random_matrix<T>(dim, dim, gen);

  md::simd::force_isa(md::simd::Isa::scalar);
  auto sdev = make_dev<T>();
  const double t0 = now_ms();
  auto fs = core::blocked_qr(sdev, a, tile);
  const double t1 = now_ms();

  md::simd::force_isa(isa);
  auto vdev = make_dev<T>();
  const double t2 = now_ms();
  auto fv = core::blocked_qr(vdev, a, tile);
  const double t3 = now_ms();
  md::simd::clear_forced();

  CaseResult r{"simd", md::name_of(sdev.precision()), dim, dim, tile,
               sdev.kernel_ms(), t1 - t0, t3 - t2};
  r.isa = md::simd::name_of(isa);
  r.simd_speedup = r.speedup();
  r.tally_ok = tallies_exact(sdev) && tallies_exact(vdev);
  for (int i = 0; i < dim && r.identical; ++i)
    for (int j = 0; j < dim; ++j)
      if (!blas::bit_identical(fs.r(i, j), fv.r(i, j)) ||
          !blas::bit_identical(fs.q(i, j), fv.q(i, j))) {
        r.identical = false;
        break;
      }
  return r;
}

// Tracing sanity (DESIGN.md §12): the identical sequential d2 QR run
// untraced (the one-branch disabled path every gated case above pays)
// and again under a live TraceSession.  Tracing must be a pure observer:
// limb-identical factors, exact tallies, and the same modeled kernel
// time to the last bit — the span layer never touches the launch
// schedule.  seq wall = untraced, par wall = traced; the ratio rides
// along ungated (a new case surfaces as a note in check_bench.py).
template <class T>
CaseResult trace_case(int dim, int tile) {
  std::mt19937_64 gen(0x5eed6 + dim);
  auto a = blas::random_matrix<T>(dim, dim, gen);

  auto plain = make_dev<T>();
  const double t0 = now_ms();
  auto fp = core::blocked_qr(plain, a, tile);
  const double t1 = now_ms();

  auto traced = make_dev<T>();
  CaseResult r{"trace", md::name_of(plain.precision()), dim, dim, tile,
               plain.kernel_ms(), t1 - t0, 0};
  {
    obs::TraceSession session;
    const double t2 = now_ms();
    auto ft = core::blocked_qr(traced, a, tile);
    const double t3 = now_ms();
    r.par_wall_ms = t3 - t2;
    if (session.snapshot().spans.empty()) r.identical = false;
    for (int i = 0; i < dim && r.identical; ++i)
      for (int j = 0; j < dim; ++j)
        if (!blas::bit_identical(fp.r(i, j), ft.r(i, j)) ||
            !blas::bit_identical(fp.q(i, j), ft.q(i, j))) {
          r.identical = false;
          break;
        }
  }
  r.tally_ok = tallies_exact(plain) && tallies_exact(traced) &&
               plain.kernel_ms() == traced.kernel_ms();
  return r;
}

// The --trace artifact: ONE session over a sampler that touches every
// span category — an adaptive ladder (kernel/transfer/panel/ladder) and
// a small single-worker service burst with a repeat matrix and a short
// path track (queue/cache/service/step) — written as Chrome trace_event
// JSON for chrome://tracing / Perfetto and tools/trace_summarize.py.
// Runs after the timed cases, so the session never overlaps a gated
// number.
void write_trace_artifact(const std::string& path) {
  obs::TraceSession session(obs::TraceOptions{1 << 15});
  {
    std::mt19937_64 gen(0x7aceULL);
    auto a = blas::random_matrix<md::qd_real>(48, 16, gen);
    auto b = blas::random_vector<md::qd_real>(48, gen);
    core::AdaptiveOptions aopt;
    aopt.tile = 8;
    aopt.tol = 1e-60;  // climb past the first rung: multi-limb ladder spans
    core::adaptive_least_squares<4>(device::volta_v100(), a, b, aopt);

    serve::SolverService<2> svc(
        core::DevicePool::homogeneous(device::volta_v100(), 1));
    auto sa = blas::random_matrix<md::dd_real>(32, 16, gen);
    auto sb = blas::random_vector<md::dd_real>(32, gen);
    std::vector<std::future<serve::Response<2>>> futures;
    for (int i = 0; i < 3; ++i) {  // one cold miss, two warm hits
      serve::Request<2> req;
      req.job = serve::LsqJob<2>{sa, sb, 8};
      futures.push_back(svc.submit(std::move(req)).result);
    }
    path::TrackOptions topt;
    topt.tile = 4;
    topt.max_steps = 32;
    serve::Request<2> tr;
    tr.job = serve::TrackJob<2>{
        path::rational_path_homotopy<md::dd_real>(8, 2.0, 0x7ace2ULL), topt};
    futures.push_back(svc.submit(std::move(tr)).result);
    for (auto& f : futures) f.get();
  }  // the service joins its workers before the snapshot
  obs::write_chrome_trace(path, session.snapshot());
  std::printf("wrote trace %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_suite.json";
  std::string trace_path;
  int width = 4;
  int positional = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--trace" && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (positional == 0) {
      out_path = argv[i];
      ++positional;
    } else if (positional == 1) {
      width = std::atoi(argv[i]);
      ++positional;
    }
  }
  util::ThreadPool pool(width - 1);  // the caller is the width-th lane

  const double probe_before = spin_probe();
  std::vector<CaseResult> cases;
  // The sweep: per precision one QR, one back substitution, one full
  // least-squares solve, sized so the d8 QR (the acceptance case) does
  // enough per-task work for the threading to matter.
  cases.push_back(qr_case<md::dd_real>(96, 16, pool, width));
  cases.push_back(qr_case<md::qd_real>(80, 16, pool, width));
  cases.push_back(qr_case<md::od_real>(64, 16, pool, width));
  cases.push_back(backsub_case<md::dd_real>(64, 16, pool, width));
  cases.push_back(backsub_case<md::qd_real>(48, 16, pool, width));
  cases.push_back(backsub_case<md::od_real>(32, 16, pool, width));
  cases.push_back(lsq_case<md::dd_real>(96, 64, 16, pool, width));
  cases.push_back(lsq_case<md::qd_real>(80, 48, 16, pool, width));
  cases.push_back(lsq_case<md::od_real>(64, 32, 16, pool, width));
  // Odd limb counts through the limb-generic engine (derived Table-1
  // rows, core/limb_dispatch.hpp): sized under the gate's --min-wall-ms
  // noise floor, so the deterministic modeled time and case coverage are
  // what the baseline locks in.
  cases.push_back(qr_case<md::mdreal<3>>(32, 16, pool, width));
  cases.push_back(lsq_case<md::mdreal<6>>(32, 16, 16, pool, width));
  // Staged-resident vs interleaved substrate: the factor-reusing QR
  // solve workload; seq wall = interleaved, par wall = staged, speedup =
  // the staged_speedup ratio the gate locks in (DESIGN.md §8).
  cases.push_back(layout_case<md::dd_real>(320, 8, 448, 8));
  cases.push_back(layout_case<md::qd_real>(288, 8, 160, 8));
  // Explicit-SIMD ablation, one case per vector tier this host can run
  // (scalar-vs-scalar would be a tautology): forced-scalar vs forced-ISA
  // sequential d2, d4 and d8 QR, each sized so its scalar wall clears
  // the gate's --min-wall-ms noise floor.
  for (md::simd::Isa isa : md::simd::supported_isas())
    if (isa != md::simd::Isa::scalar) {
      cases.push_back(simd_case<md::dd_real>(160, 16, isa));
      cases.push_back(simd_case<md::qd_real>(64, 16, isa));
      cases.push_back(simd_case<md::od_real>(48, 16, isa));
    }
  // Tracing-is-a-pure-observer sanity: untraced vs traced sequential d2
  // QR; the binary enforces bit-identity, exact tallies and identical
  // modeled time below, like every other case (DESIGN.md §12).
  cases.push_back(trace_case<md::dd_real>(96, 16));
  const double probe_after = spin_probe();

  bench::header("sequential vs threaded execution engine (V100 model)");
  std::printf("threads: %d (hardware_concurrency %u)\n", width,
              std::thread::hardware_concurrency());
  std::printf("host effective parallelism: %.2f before, %.2f after\n\n",
              probe_before, probe_after);
  util::Table t({"kind", "prec", "rows", "cols", "tile", "modeled ms",
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
               "{\"bench\":\"suite\",\"device\":\"%s\",\"threads\":%d,"
               "\"hardware_concurrency\":%u,\"probe_before\":%.3f,"
               "\"probe_after\":%.3f,\"cases\":[",
               device::volta_v100().name.c_str(), width,
               std::thread::hardware_concurrency(), probe_before,
               probe_after);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const auto& c = cases[i];
    std::fprintf(f,
                 "%s{\"kind\":\"%s\",\"precision\":\"%s\",\"rows\":%d,"
                 "\"cols\":%d,\"tile\":%d,\"modeled_kernel_ms\":%.6f,"
                 "\"seq_wall_ms\":%.3f,\"par_wall_ms\":%.3f,"
                 "\"speedup\":%.3f,\"bit_identical\":%s,"
                 "\"tally_conserved\":%s",
                 i ? "," : "", c.kind.c_str(), c.precision.c_str(), c.rows,
                 c.cols, c.tile, c.modeled_kernel_ms, c.seq_wall_ms,
                 c.par_wall_ms, c.speedup(),
                 c.identical ? "true" : "false",
                 c.tally_ok ? "true" : "false");
    if (c.staged_speedup > 0)
      std::fprintf(f, ",\"staged_speedup\":%.3f", c.staged_speedup);
    if (!c.isa.empty())
      std::fprintf(f, ",\"isa\":\"%s\",\"simd_speedup\":%.3f", c.isa.c_str(),
                   c.simd_speedup);
    std::fprintf(f, "}");
  }
  std::fprintf(f, "]}\n");
  std::fclose(f);
  std::printf("\nwrote %s\n", out_path.c_str());

  if (!trace_path.empty()) write_trace_artifact(trace_path);

  // Correctness gate: bit-identity and tally conservation are hard
  // failures everywhere.  Speedup is recorded, not asserted — the CI gate
  // (tools/check_bench.py) compares it against the committed baseline.
  for (const auto& c : cases)
    if (!c.identical || !c.tally_ok) {
      std::printf("UNEXPECTED: threaded run diverged on %s %s\n",
                  c.kind.c_str(), c.precision.c_str());
      return 1;
    }
  return 0;
}
