// The arithmetic cost model of the paper's Table 1: how many double
// precision operations one multiple-double operation expands into.  The
// published table covers double double (2 limbs), quad double (4) and
// octo double (8); every other limb count N >= 2 gets a derived analytic
// row (see derived_cost_table below) that reproduces the published rows
// exactly at N = 2, 4, 8.
//
// These tallies are used exactly the way the paper uses them: a small
// accumulator counts the *multiple-double* operations executed by each
// kernel, and the total double-precision flop count is obtained by
// multiplying with the Σ column of Table 1.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <stdexcept>
#include <string>

namespace mdlsq::md {

// Named limb counts for the paper's working precisions.  The enum is a
// transparent wrapper over the limb count — the generic engine accepts
// `Precision(n)` for any n >= 1 (d3, d6, d16, ...); these four named
// values are just the rows the paper benchmarks.
enum class Precision : int { d1 = 1, d2 = 2, d4 = 4, d8 = 8 };

constexpr int limbs_of(Precision p) noexcept { return static_cast<int>(p); }

// Total over every limb count >= 1; throws std::invalid_argument below 1.
// Returns a pointer that stays valid for the process lifetime (the printf
// "%s" call sites in the report/bench layers hold it across the call):
// the common counts are string literals, anything else is formatted once
// into a process-wide cache whose nodes never move.
inline const char* name_of(int limbs) {
  switch (limbs) {
    case 1: return "1d";
    case 2: return "2d";
    case 3: return "3d";
    case 4: return "4d";
    case 5: return "5d";
    case 6: return "6d";
    case 8: return "8d";
    case 16: return "16d";
    default: break;
  }
  if (limbs < 1)
    throw std::invalid_argument("mdlsq: name_of requires limbs >= 1, got " +
                                std::to_string(limbs));
  static std::mutex mu;
  static std::map<int, std::string> cache;  // node-based: c_str() is stable
  const std::lock_guard<std::mutex> lock(mu);
  return cache.try_emplace(limbs, std::to_string(limbs) + "d")
      .first->second.c_str();
}

inline const char* name_of(Precision p) { return name_of(limbs_of(p)); }

// One row of Table 1: the double-precision +, -, *, / used by one
// multiple-double operation.
struct OpCost {
  int adds = 0;
  int subs = 0;
  int muls = 0;
  int divs = 0;
  constexpr int total() const noexcept { return adds + subs + muls + divs; }
};

// One block of Table 1: costs of a multiple-double add, mul and div.
struct CostTable {
  OpCost add;
  OpCost mul;
  OpCost div;
  // The paper's "average" row: mean of the three Σ values (37.7, 439.3,
  // 2379.0 for double double, quad double, octo double).
  constexpr double average() const noexcept {
    return (add.total() + mul.total() + div.total()) / 3.0;
  }
};

namespace detail {
// One column of a derived cost row: the quadratic a·N² + b·N + c over the
// common denominator 24 through the published anchors at N = 2, 4, 8,
// rounded half-up.  The renormalization / error-free-transformation
// chains in md/expansion.hpp are linear sweeps over limb vectors nested
// inside pairwise product/accumulation loops, so each double-precision
// operation class grows quadratically in the limb count; fitting the
// unique quadratic through the three published data points recovers
// integer numerators over 24 for every column, and the fit is exact
// (remainder 0) at the anchors themselves.
constexpr int quad24(int a, int b, int c, int n) noexcept {
  return (a * n * n + b * n + c + 12) / 24;
}
}  // namespace detail

// The derived analytic cost row for an N-limb operation, N >= 2.  By
// construction this reproduces the published Table-1 rows exactly at
// N = 2, 4, 8 (pinned in tests/test_opcounts.cpp) and interpolates /
// extrapolates every other count (d3, d5, d6, d16, ...) with strictly
// increasing per-op totals.  N = 1 is NOT in this family — plain doubles
// have no renormalization chain; cost_table() special-cases it.
constexpr CostTable derived_cost_table(int limbs) {
  if (limbs < 2)
    throw std::invalid_argument(
        "mdlsq: derived_cost_table requires limbs >= 2, got " +
        std::to_string(limbs));
  const int n = limbs;
  using detail::quad24;
  return {{quad24(6, 288, -408, n), quad24(36, 288, -432, n), 0, 0},
          {quad24(242, -324, -200, n), quad24(480, -1020, 336, n),
           quad24(58, 420, -856, n), 0},
          {quad24(867, -2406, 2136, n), quad24(1576, -3552, 1232, n),
           quad24(144, 288, -768, n), n + 1}};
}

// Table 1 of the paper (exact published rows for 2/4/8 limbs), the
// trivial 1-limb row, and the derived analytic row for every other
// N >= 2.  Total: throws std::invalid_argument below 1 limb — there is
// no silent all-zero row any more.
constexpr CostTable cost_table(int limbs) {
  switch (limbs) {
    case 1:
      return {{1, 0, 0, 0}, {0, 0, 1, 0}, {0, 0, 0, 1}};
    case 2:
      return {{8, 12, 0, 0}, {5, 9, 9, 0}, {33, 18, 16, 3}};
    case 4:
      return {{35, 54, 0, 0}, {99, 164, 73, 0}, {266, 510, 112, 5}};
    case 8:
      return {{95, 174, 0, 0}, {529, 954, 259, 0}, {1599, 3070, 448, 9}};
    default:
      if (limbs < 1)
        throw std::invalid_argument(
            "mdlsq: cost_table requires limbs >= 1, got " +
            std::to_string(limbs));
      return derived_cost_table(limbs);
  }
}

constexpr CostTable cost_table(Precision p) { return cost_table(limbs_of(p)); }

// Multiple-double operation tally of a kernel or a whole run.
// Subtractions are counted separately but cost the same as additions;
// square roots are costed as divisions (the paper's kernels use one
// square root per Householder column; Table 1 has no sqrt row).
struct OpTally {
  std::int64_t add = 0;
  std::int64_t sub = 0;
  std::int64_t mul = 0;
  std::int64_t div = 0;
  std::int64_t sqrt = 0;

  constexpr OpTally& operator+=(const OpTally& o) noexcept {
    add += o.add;
    sub += o.sub;
    mul += o.mul;
    div += o.div;
    sqrt += o.sqrt;
    return *this;
  }
  friend constexpr OpTally operator+(OpTally a, const OpTally& b) noexcept {
    a += b;
    return a;
  }
  // Snapshot deltas (DeviceUsage phase attribution): b must be an earlier
  // snapshot of the same accumulator, so components never go negative.
  constexpr OpTally& operator-=(const OpTally& o) noexcept {
    add -= o.add;
    sub -= o.sub;
    mul -= o.mul;
    div -= o.div;
    sqrt -= o.sqrt;
    return *this;
  }
  friend constexpr OpTally operator-(OpTally a, const OpTally& b) noexcept {
    a -= b;
    return a;
  }
  constexpr std::int64_t md_ops() const noexcept {
    return add + sub + mul + div + sqrt;
  }
  // Double-precision flops under the Table 1 cost model (throws for
  // limb counts below 1, like cost_table).
  constexpr double dp_flops(Precision p) const {
    const CostTable t = cost_table(p);
    return static_cast<double>(add + sub) * t.add.total() +
           static_cast<double>(mul) * t.mul.total() +
           static_cast<double>(div + sqrt) * t.div.total();
  }
  constexpr bool operator==(const OpTally&) const noexcept = default;
};

namespace detail {
// Thread-local tally hook.  Null (no counting) unless a ScopedTally is
// live; the arithmetic operators test the pointer, which costs one
// predictable branch per multiple-double operation.
inline thread_local OpTally* tally_hook = nullptr;

inline void count_add() noexcept { if (tally_hook) ++tally_hook->add; }
inline void count_sub() noexcept { if (tally_hook) ++tally_hook->sub; }
inline void count_mul() noexcept { if (tally_hook) ++tally_hook->mul; }
inline void count_div() noexcept { if (tally_hook) ++tally_hook->div; }
inline void count_sqrt() noexcept { if (tally_hook) ++tally_hook->sqrt; }

// Bulk report of a kernel that executed `t` multiple-double operations
// without routing them through the counting operators — the fused SIMD
// kernels (blas/fused.hpp), which perform the same logical md-op
// sequence as the accessor-generic bodies but keep limbs in registers.
inline void count_bulk(const OpTally& t) noexcept {
  if (tally_hook) *tally_hook += t;
}
}  // namespace detail

// RAII: accumulate all multiple-double operations executed on this thread
// into `tally` for the lifetime of the scope.  Nests: the previous hook is
// restored (and the inner counts are *also* added to the outer tally via
// the chained pointer being replaced, i.e. inner scopes shadow).
class ScopedTally {
 public:
  explicit ScopedTally(OpTally& tally) noexcept
      : prev_(detail::tally_hook) {
    detail::tally_hook = &tally;
  }
  ~ScopedTally() { detail::tally_hook = prev_; }
  ScopedTally(const ScopedTally&) = delete;
  ScopedTally& operator=(const ScopedTally&) = delete;

 private:
  OpTally* prev_;
};

}  // namespace mdlsq::md
