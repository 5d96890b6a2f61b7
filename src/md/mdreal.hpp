// mdreal<N>: a multiple-double real number — the unevaluated sum of N
// doubles ("limbs"), most significant first, kept in renormalized form
// (each limb is at most half an ulp of its predecessor).  N = 2, 4, 8
// correspond to the paper's double double, quad double and octo double
// precisions (roughly 32, 64 and 128 decimal digits); any N >= 1 works,
// which the tests exercise with N = 3 and N = 5.
//
// The algorithms follow QDlib (Hida-Li-Bailey) and CAMPARY
// (Joldes-Muller-Popescu): addition merges the two renormalized limb
// sequences and renormalizes; multiplication forms all partial products
// of limb pairs up to the target order with exact errors and renormalizes;
// division is the classical long division with N+1 quotient terms; square
// root is Newton's iteration from a double seed (precision doubles per
// step).  The exact-expansion engine in expansion.hpp serves both as the
// distillation fallback and as the test oracle.
//
// Every public arithmetic operator reports itself to the thread-local
// operation tally (op_counts.hpp) so kernels can be costed with the
// paper's Table 1 multipliers.
#pragma once

#include <array>
#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>

#include "eft.hpp"
#include "expansion.hpp"
#include "op_counts.hpp"

namespace mdlsq::md {

template <int N>
class mdreal {
  static_assert(N >= 1, "a multiple double has at least one limb");

 public:
  static constexpr int limbs = N;

  constexpr mdreal() = default;
  constexpr mdreal(double d) : x_{} { x_[0] = d; }  // NOLINT: implicit by design
  constexpr mdreal(int i) : mdreal(static_cast<double>(i)) {}

  // Unit roundoff of the format: adding anything smaller than eps()*|x|
  // to x is invisible.  2^(2-53N): 2^-104 for double double (QDlib's
  // value), 2^-210 for quad double, 2^-422 for octo double.
  static constexpr double eps() noexcept {
    double e = 4.0;
    for (int i = 0; i < 53 * N; ++i) e *= 0.5;
    return e;
  }

  // --- limb access -------------------------------------------------------
  constexpr double limb(int i) const noexcept { return x_[i]; }
  constexpr void set_limb(int i, double v) noexcept { x_[i] = v; }

  // Builds from limbs already in renormalized, most-significant-first
  // order (e.g. gathered back from staged device arrays).  Trusted input.
  static constexpr mdreal from_limbs(const double* p) noexcept {
    mdreal r;
    for (int i = 0; i < N; ++i) r.x_[i] = p[i];
    return r;
  }

  // Builds from K arbitrary doubles of roughly decreasing magnitude,
  // renormalizing.  K <= 2N.
  static mdreal renormalized(const double* terms, int k) noexcept {
    double buf[2 * N];
    for (int i = 0; i < k; ++i) buf[i] = terms[i];
    mdreal r;
    expn::renorm(buf, k, r.x_.data(), N);
    return r;
  }

  void store(double* p) const noexcept {
    for (int i = 0; i < N; ++i) p[i] = x_[i];
  }

  // Precision conversion: exact when widening (zero-extend), faithful
  // truncation when narrowing (limbs are renormalized, so dropping the
  // tail loses less than one ulp of the last kept limb).  The mixed
  // precision refinement solver relies on both directions.
  template <int M>
  constexpr mdreal<M> to_precision() const noexcept {
    mdreal<M> r;
    for (int i = 0; i < (M < N ? M : N); ++i) r.set_limb(i, x_[i]);
    return r;
  }

  // --- conversions and predicates ----------------------------------------
  constexpr double to_double() const noexcept { return x_[0]; }
  constexpr explicit operator double() const noexcept { return x_[0]; }

  constexpr bool is_zero() const noexcept {
    for (int i = 0; i < N; ++i)
      if (x_[i] != 0.0) return false;
    return true;
  }
  constexpr bool is_negative() const noexcept { return x_[0] < 0.0; }
  bool isfinite() const noexcept { return std::isfinite(x_[0]); }
  bool isnan() const noexcept { return std::isnan(x_[0]); }

  // --- unary -------------------------------------------------------------
  constexpr mdreal operator-() const noexcept {
    mdreal r;
    for (int i = 0; i < N; ++i) r.x_[i] = -x_[i];
    return r;
  }
  constexpr mdreal operator+() const noexcept { return *this; }

  // --- arithmetic (counting wrappers around the _impl kernels) ------------
  friend mdreal operator+(const mdreal& a, const mdreal& b) noexcept {
    detail::count_add();
    return add_impl(a, b);
  }
  friend mdreal operator-(const mdreal& a, const mdreal& b) noexcept {
    detail::count_sub();
    return add_impl(a, -b);
  }
  friend mdreal operator*(const mdreal& a, const mdreal& b) noexcept {
    detail::count_mul();
    return mul_impl(a, b);
  }
  friend mdreal operator/(const mdreal& a, const mdreal& b) noexcept {
    detail::count_div();
    return div_impl(a, b);
  }

  // Mixed double operands (cheaper kernels; counted at the same Table 1
  // rate as full multiple-double operations, as in the paper's tallies).
  friend mdreal operator+(const mdreal& a, double b) noexcept {
    detail::count_add();
    return add_double_impl(a, b);
  }
  friend mdreal operator+(double a, const mdreal& b) noexcept { return b + a; }
  friend mdreal operator-(const mdreal& a, double b) noexcept {
    detail::count_sub();
    return add_double_impl(a, -b);
  }
  friend mdreal operator-(double a, const mdreal& b) noexcept {
    detail::count_sub();
    return add_double_impl(-b, a);
  }
  friend mdreal operator*(const mdreal& a, double b) noexcept {
    detail::count_mul();
    return mul_double_impl(a, b);
  }
  friend mdreal operator*(double a, const mdreal& b) noexcept { return b * a; }
  friend mdreal operator/(const mdreal& a, double b) noexcept {
    detail::count_div();
    return div_impl(a, mdreal(b));
  }
  friend mdreal operator/(double a, const mdreal& b) noexcept {
    detail::count_div();
    return div_impl(mdreal(a), b);
  }

  mdreal& operator+=(const mdreal& o) noexcept { return *this = *this + o; }
  mdreal& operator-=(const mdreal& o) noexcept { return *this = *this - o; }
  mdreal& operator*=(const mdreal& o) noexcept { return *this = *this * o; }
  mdreal& operator/=(const mdreal& o) noexcept { return *this = *this / o; }
  mdreal& operator+=(double o) noexcept { return *this = *this + o; }
  mdreal& operator-=(double o) noexcept { return *this = *this - o; }
  mdreal& operator*=(double o) noexcept { return *this = *this * o; }
  mdreal& operator/=(double o) noexcept { return *this = *this / o; }

  // Exact scaling by a power of two (no rounding, no renormalization
  // needed because every limb scales by the same factor).
  friend mdreal ldexp(const mdreal& a, int e) noexcept {
    mdreal r;
    for (int i = 0; i < N; ++i) r.x_[i] = std::ldexp(a.x_[i], e);
    return r;
  }

  // --- comparisons ---------------------------------------------------------
  // Renormalized form makes the leading limb carry the sign and magnitude,
  // so comparing the exact difference's leading limb is decisive.
  friend bool operator==(const mdreal& a, const mdreal& b) noexcept {
    return add_impl(a, -b).is_zero();
  }
  friend std::strong_ordering operator<=>(const mdreal& a,
                                          const mdreal& b) noexcept {
    const double d = add_impl(a, -b).x_[0];
    if (d < 0.0) return std::strong_ordering::less;
    if (d > 0.0) return std::strong_ordering::greater;
    return std::strong_ordering::equal;
  }
  friend bool operator==(const mdreal& a, double b) noexcept {
    return a == mdreal(b);
  }
  friend std::strong_ordering operator<=>(const mdreal& a, double b) noexcept {
    return a <=> mdreal(b);
  }

  friend mdreal abs(const mdreal& a) noexcept {
    return a.is_negative() ? -a : a;
  }
  friend mdreal fabs(const mdreal& a) noexcept { return abs(a); }

  // --- the arithmetic kernels (non-counting; also used internally) --------
  static mdreal add_impl(const mdreal& a, const mdreal& b) noexcept {
    if (!a.isfinite() || !b.isfinite()) return mdreal(a.x_[0] + b.x_[0]);
    // Distill the 2N limbs into an exact non-overlapping expansion, then
    // extract the leading N limbs.  The distillation is exact for ANY
    // term order and magnitude pattern (Shewchuk), which matters because
    // cancellation makes single-pass renormalization lossy.
    double t[2 * N], h[2 * N];
    int k = 0;
    for (int i = 0; i < N; ++i) t[k++] = a.x_[i];
    for (int i = 0; i < N; ++i) t[k++] = b.x_[i];
    const int len = expn::sum_terms(t, k, h);
    mdreal r;
    expn::extract(h, len, r.x_.data(), N);
    return finite_or(r, a.x_[0] + b.x_[0]);
  }

  static mdreal add_double_impl(const mdreal& a, double b) noexcept {
    if (!a.isfinite() || !std::isfinite(b)) return mdreal(a.x_[0] + b);
    double t[N + 1], h[N + 1];
    for (int i = 0; i < N; ++i) t[i] = a.x_[i];
    t[N] = b;
    const int len = expn::sum_terms(t, N + 1, h);
    mdreal r;
    expn::extract(h, len, r.x_.data(), N);
    return finite_or(r, a.x_[0] + b);
  }

  static mdreal mul_impl(const mdreal& a, const mdreal& b) noexcept {
    if (!a.isfinite() || !b.isfinite()) return mdreal(a.x_[0] * b.x_[0]);
    if constexpr (N == 1) {
      return mdreal(a.x_[0] * b.x_[0]);
    } else {
      // All partial products a_i * b_j with i + j < N, with their exact
      // errors; diagonal i + j == N contributes the plain products (they
      // sit at the rounding boundary of the last limb).  The terms are
      // distilled exactly: their magnitudes need NOT follow the nominal
      // 2^-53(i+j) pattern (e.g. multipliers like 1 - 1e-65 concentrate
      // all low limbs far below the head), so ordering assumptions are
      // unsafe and the exact path is required for full accuracy.
      double m[N * (2 * N + 1)], h[N * (2 * N + 1)];
      int k = 0;
      for (int d = 0; d < N; ++d) {
        for (int i = 0; i <= d; ++i) {
          double p, e;
          two_prod(a.x_[i], b.x_[d - i], p, e);
          m[k++] = p;
          if (e != 0.0) m[k++] = e;
        }
      }
      for (int i = 1; i < N; ++i) m[k++] = a.x_[i] * b.x_[N - i];
      const int len = expn::sum_terms(m, k, h);
      mdreal r;
      expn::extract(h, len, r.x_.data(), N);
      return finite_or(r, a.x_[0] * b.x_[0]);
    }
  }

  static mdreal mul_double_impl(const mdreal& a, double b) noexcept {
    if (!a.isfinite() || !std::isfinite(b)) return mdreal(a.x_[0] * b);
    double m[2 * N], h[2 * N];
    int k = 0;
    for (int i = 0; i < N; ++i) {
      double p, e;
      two_prod(a.x_[i], b, p, e);
      m[k++] = p;
      if (e != 0.0) m[k++] = e;
    }
    const int len = expn::sum_terms(m, k, h);
    mdreal r;
    expn::extract(h, len, r.x_.data(), N);
    return finite_or(r, a.x_[0] * b);
  }

  static mdreal div_impl(const mdreal& a, const mdreal& b) noexcept {
    if (!a.isfinite() || !b.isfinite() || b.x_[0] == 0.0)
      return mdreal(a.x_[0] / b.x_[0]);
    // Long division: peel off one quotient digit per step, subtracting
    // q_k * b from the running remainder at full precision.
    double q[N + 1], h[N + 1];
    mdreal r = a;
    for (int k = 0; k <= N; ++k) {
      q[k] = r.x_[0] / b.x_[0];
      if (k < N) r = add_impl(r, -mul_double_impl(b, q[k]));
    }
    const int len = expn::sum_terms(q, N + 1, h);
    mdreal out;
    expn::extract(h, len, out.x_.data(), N);
    return finite_or(out, a.x_[0] / b.x_[0]);
  }

  // Exact sum/product oracles via the expansion engine — used by the tests
  // to bound the rounding error of the fast kernels above.
  static mdreal add_exact_oracle(const mdreal& a, const mdreal& b) noexcept {
    double t[2 * N], h[2 * N];
    int k = 0;
    for (int i = 0; i < N; ++i) t[k++] = a.x_[i];
    for (int i = 0; i < N; ++i) t[k++] = b.x_[i];
    const int len = expn::sum_terms(t, k, h);
    mdreal r;
    expn::extract(h, len, r.x_.data(), N);
    return r;
  }

 private:
  // The one non-finite rule of the kernels above: an operand or a leading
  // result that is not finite yields the IEEE result of the leading limbs
  // with the other limbs zero, so overflow gives a signed infinity rather
  // than the NaN an error term computes as Inf - Inf.  Finite results
  // keep their bits.
  static mdreal finite_or(const mdreal& r, double leading) noexcept {
    return std::isfinite(r.x_[0]) ? r : mdreal(leading);
  }

  std::array<double, N> x_{};
};

using dd_real = mdreal<2>;  // ~31.9 decimal digits
using qd_real = mdreal<4>;  // ~63.8 decimal digits
using od_real = mdreal<8>;  // ~127.6 decimal digits

// The precision enum of the cost model maps onto these types.
template <Precision P>
using real_of = mdreal<static_cast<int>(P)>;

}  // namespace mdlsq::md
