// Limb-count dispatch: the single compile-time instantiation list behind
// every runtime precision decision in the engine.
//
// The arithmetic layer (md/mdreal.hpp, md/expansion.hpp) is generic over
// any limb count N >= 1, but each count the runtime can select must be
// instantiated somewhere.  LimbList pins that set in ONE place and makes
// dispatch total: asking for a count outside the list throws
// std::invalid_argument — never a silent no-op (the old `with_limbs`
// switch hit `assert(!"unsupported")` and, under NDEBUG, simply skipped
// the callable).
//
// The same header defines the ladder's rung-sequence machinery: the
// default doubling ladder (d2 -> d4 -> d8) and user-supplied sequences
// like {2, 3, 4, 6, 8} that escalate in finer steps than doubling, so an
// escalation no longer has to triple the modeled cost when one extra
// limb would do (cost_table(3) ≈ 0.44 × cost_table(4) per op).
#pragma once

#include <stdexcept>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "md/mdreal.hpp"
#include "md/simd/dispatch.hpp"

namespace mdlsq::core {

// A compile-time list of instantiated limb counts.  dispatch() maps a
// runtime count onto the matching mdreal<N> tag via a fold over the list;
// a miss throws (total function, release-mode safe).
template <int... Ns>
struct LimbList {
  static constexpr bool contains(int limbs) noexcept {
    return ((limbs == Ns) || ...);
  }
  static std::vector<int> values() { return {Ns...}; }

  template <class F>
  static void dispatch(int limbs, F&& f) {
    const bool hit =
        ((limbs == Ns ? (f(md::mdreal<Ns>{}), true) : false) || ...);
    if (!hit) {
      std::string msg =
          "mdlsq: unsupported limb count " + std::to_string(limbs) +
          "; instantiated counts:";
      ((msg += ' ', msg += std::to_string(Ns)), ...);
      throw std::invalid_argument(msg);
    }
  }
};

// The engine's instantiation list.  Adding a count here is the whole
// story once the fused kernel family is compiled for it too
// (md::simd::kFusedLimbs, checked below): the ladder, tracker, batched
// driver, cost model and name table all accept it immediately
// (cost_table/name_of are total over N >= 1).
using SupportedLimbs = LimbList<1, 2, 3, 4, 5, 6, 8, 16>;

template <int... Ns>
constexpr bool fused_for_all(LimbList<Ns...>) noexcept {
  return (md::simd::fused_limbs(Ns) && ...);
}
static_assert(fused_for_all(SupportedLimbs{}),
              "every supported limb count needs the fused QR kernels");

// Dispatch a callable templated on mdreal<L> over a runtime limb count.
// Throws std::invalid_argument when `limbs` is not in SupportedLimbs.
template <class F>
void with_limbs(int limbs, F&& f) {
  SupportedLimbs::dispatch(limbs, std::forward<F>(f));
}

// std::variant over F<N> for every N in a LimbList (plus monostate for
// "empty") — the adaptive ladder's factor store, replacing one optional
// member per hard-wired precision.
template <template <int> class F, class List>
struct variant_over;
template <template <int> class F, int... Ns>
struct variant_over<F, LimbList<Ns...>> {
  using type = std::variant<std::monostate, F<Ns>...>;
};
template <template <int> class F>
using limb_variant_t = typename variant_over<F, SupportedLimbs>::type;

// The default ladder for an nh-limb target: the limb count doubles from
// d2; if doubling overshoots the target, the target itself becomes the
// final rung (so a d6 target climbs 2 -> 4 -> 6, and a d1 target has the
// one rung d1).  The historical d2 -> d4 -> d8 ladder for nh = 8.
inline std::vector<int> default_rungs(int nh) {
  std::vector<int> r;
  for (int l = 2; l <= nh; l *= 2) r.push_back(l);
  if (r.empty() || r.back() != nh) r.push_back(nh);
  return r;
}

// The one ladder knob, resolved for an nh-limb target: an empty sequence
// means the default doubling ladder; a non-empty one must be strictly
// increasing with every count instantiated, and its rungs above nh are
// dropped.  A sequence with no rung at or below nh is an error.  Every
// driver takes its first and last rung from the result's front and
// back.  Throws std::invalid_argument on every violation.
inline std::vector<int> resolve_rungs(const std::vector<int>& rungs, int nh) {
  if (rungs.empty()) return default_rungs(nh);
  std::vector<int> out;
  int prev = 0;
  for (const int l : rungs) {
    if (l <= prev)
      throw std::invalid_argument(
          "mdlsq: rung sequence must be strictly increasing positive "
          "limb counts");
    if (!SupportedLimbs::contains(l))
      throw std::invalid_argument(
          "mdlsq: rung sequence contains uninstantiated limb count " +
          std::to_string(l));
    prev = l;
    if (l <= nh) out.push_back(l);
  }
  if (out.empty())
    throw std::invalid_argument(
        "mdlsq: no rung of the sequence lies at or below the target's " +
        std::to_string(nh) + " limbs");
  return out;
}

namespace detail {
// Historical spelling: callers across the tree use core::detail::with_limbs.
using mdlsq::core::with_limbs;
}  // namespace detail

}  // namespace mdlsq::core
