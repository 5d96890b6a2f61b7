// dense_lsq — the paper's own workload: a closed loop with one client
// calling least_squares round-robin at d2/d4/d8 on seeded random dense
// problems, a fresh functional V100 Device per op, tile parallelism 4 (the
// caller plus 3 helpers of one util::ThreadPool).  No ladder, batch
// runner, cache or queue runs, so it is the control for those layers.
#include <random>
#include <tuple>

#include "harness.hpp"
#include "probes.hpp"

namespace perfbench {
namespace {

using namespace mdlsq;

// Per precision: columns, tile, and the row counts lo, lo+step, ... (one
// per problem).  Every seed solves the same shapes with seeded entries, so
// neither the latency distribution of a run nor the warm-up cost depends
// on which sizes a seed happened to draw.
struct Shape {
  int cols, tile, rows_lo, rows_step;
};
constexpr int kProblems = 8;
constexpr Shape kShape2{64, 16, 128, 4};
constexpr Shape kShape4{32, 16, 32, 2};
constexpr Shape kShape8{16, 8, 24, 2};
constexpr int kParallelism = kDenseParallelism;
// A normwise backward error above kBackwardUlps * eps(precision) is a
// wrong answer (Householder QR is backward stable; observed values stay
// more than two orders of magnitude below this).
constexpr double kBackwardUlps = 1e4;

template <int N>
struct Problem {
  blas::Matrix<mdreal<N>> a;
  blas::Vector<mdreal<N>> b;
  int tile = 0;
};

template <int N>
struct Out {
  int problem = 0;
  std::int64_t op = 0;
  blas::Vector<mdreal<N>> x;
  md::OpTally analytic, measured;
  double kernel_ms = 0, wall_ms = 0;
};

template <int N>
std::vector<Problem<N>> make_problems(const Shape& s, std::mt19937_64& gen) {
  std::vector<Problem<N>> out;
  for (int k = 0; k < kProblems; ++k) {
    const int m = s.rows_lo + k * s.rows_step;
    out.push_back({blas::random_matrix<mdreal<N>>(m, s.cols, gen),
                   blas::random_vector<mdreal<N>>(m, gen), s.tile});
  }
  return out;
}

class DenseLsq final : public Workload {
 public:
  explicit DenseLsq(std::uint64_t seed) {
    std::mt19937_64 gen(seed);
    std::get<0>(probs_) = make_problems<2>(kShape2, gen);
    std::get<1>(probs_) = make_problems<4>(kShape4, gen);
    std::get<2>(probs_) = make_problems<8>(kShape8, gen);
  }

  void setup() override {
    pool_.reset();
    pool_ = std::make_unique<util::ThreadPool>(kParallelism - 1);
    Phase warm;
    op<2>(0, -1, warm);
    op<4>(0, -1, warm);
    op<8>(0, -1, warm);
    outs_ = {};
  }

  Phase run(double seconds, int min_ops) override {
    Phase ph;
    const std::int64_t deadline =
        obs::now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    for (std::int64_t i = 0;; ++i) {
      if (i >= min_ops && obs::now_ns() >= deadline) break;
      const int k = static_cast<int>((i / 3) % kProblems);
      switch (i % 3) {
        case 0: op<2>(k, i, ph); break;
        case 1: op<4>(k, i, ph); break;
        default: op<8>(k, i, ph); break;
      }
    }
    ph.wall_s = static_cast<double>(ph.win_end_ns.back() -
                                    ph.win_start_ns.front()) / 1e9;
    return ph;
  }

  void check(Phase& ph) override {
    check_outs<2>(ph);
    check_outs<4>(ph);
    check_outs<8>(ph);
  }

  double latency_limit_ms() const override { return 300.0; }
  bool client_runs_kernels() const override { return true; }
  int tile_parallelism() const override { return kParallelism; }

  std::uint64_t input_digest() const override {
    Digest d;
    std::apply([&](const auto&... ps) { (digest(d, ps), ...); }, probs_);
    return d.h;
  }

 private:
  template <int N>
  static void digest(Digest& d, const std::vector<Problem<N>>& ps) {
    for (const auto& p : ps) {
      d.add(p.a);
      d.add(p.b);
    }
  }

  template <int N>
  std::vector<Problem<N>>& probs() {
    return std::get<N == 2 ? 0 : N == 4 ? 1 : 2>(probs_);
  }
  template <int N>
  std::vector<Out<N>>& outs() {
    return std::get<N == 2 ? 0 : N == 4 ? 1 : 2>(outs_);
  }

  template <int N>
  void op(int k, std::int64_t i, Phase& ph) {
    using T = mdreal<N>;
    const Problem<N>& p = probs<N>()[static_cast<std::size_t>(k)];
    ++ph.attempted;
    obs::Span span("bench.op", obs::Cat::service, N);
    const std::int64_t t0 = obs::now_ns();
    try {
      device::Device dev(device::volta_v100(), md::Precision(N),
                         device::ExecMode::functional);
      dev.set_parallelism(pool_.get(), kParallelism);
      auto r = core::least_squares<T>(dev, p.a, p.b, p.tile);
      const std::int64_t t1 = obs::now_ns();
      ph.add_op(t0, t1, static_cast<double>(t1 - t0) / 1e6, N);
      outs<N>().push_back({k, i, std::move(r.x), dev.analytic_total(),
                           dev.measured_total(), dev.kernel_ms(),
                           dev.wall_ms()});
    } catch (const std::exception& e) {
      const std::int64_t t1 = obs::now_ns();
      ph.add_op(t0, t1, static_cast<double>(t1 - t0) / 1e6, N);
      ph.fail(std::string("least_squares threw: ") + e.what());
    }
  }

  template <int N>
  void check_outs(Phase& ph) {
    for (Out<N>& o : outs<N>()) {
      const Problem<N>& p = probs<N>()[static_cast<std::size_t>(o.problem)];
      if (o.op == corrupt_op_) corrupt(o.x);
      Counters& c = ph.c;
      c.device_dp_flops += o.analytic.dp_flops(md::Precision(N));
      c.device_md_ops += o.analytic.md_ops();
      c.ops_by_limbs[N] += o.analytic;
      c.modeled_ms += o.wall_ms;
      c.transfer_ms += o.wall_ms - o.kernel_ms;
      c.add_slot_ms(0, o.wall_ms);
      if (!(o.measured == o.analytic)) {
        ph.fail("d" + std::to_string(N) + " measured != analytic tally");
        continue;
      }
      const double be = lsq_backward_error<N>(p.a, p.b, o.x);
      if (!(be <= kBackwardUlps * eps_of(N)))
        ph.fail("d" + std::to_string(N) + " backward error " +
                std::to_string(be / eps_of(N)) + " eps");
    }
    outs<N>().clear();
  }

  std::tuple<std::vector<Problem<2>>, std::vector<Problem<4>>,
             std::vector<Problem<8>>>
      probs_;
  std::tuple<std::vector<Out<2>>, std::vector<Out<4>>, std::vector<Out<8>>>
      outs_;
  std::unique_ptr<util::ThreadPool> pool_;
};

}  // namespace

DenseShape dense_probe_shape(int limbs) {
  const Shape& s = limbs == 2 ? kShape2 : limbs == 4 ? kShape4 : kShape8;
  return {s.rows_lo + s.rows_step * (kProblems / 2), s.cols, s.tile};
}

std::unique_ptr<Workload> make_dense_lsq(std::uint64_t seed) {
  return std::make_unique<DenseLsq>(seed);
}

}  // namespace perfbench
