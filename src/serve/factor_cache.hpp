// The factor cache of the solver service (DESIGN.md §11): an LRU map
// from a matrix fingerprint to that matrix's thin DEVICE-RESIDENT QR
// factors (core::ResidentQr: Q's leading c columns and R's c-by-c
// triangle, all a solve reads), so repeat least-squares requests against
// the same operator skip both the factorization launches and the input
// staging transfer.  Staged residency (DESIGN.md §8) is what makes the
// hit nearly free: a cached factor is already in limb-planar device
// storage, and the warm path (core::staged_lsq_finish) replays the
// identical post-factorization launches against it, so cache-hit results
// are limb-identical to cold results by construction.
//
// Keying and verification.  The key is a fingerprint: FNV-1a over the
// shape, the limb count and every limb of every element bitwise.  FNV-1a
// is not collision-resistant, so every entry keeps its operand A, and
// find() compares the requested matrix's shape and every limb bit
// pattern against it (a NaN entry matches itself).  A mismatch is a miss
// and a verification failure, never another matrix's factors.
//
// Eviction.  Entries are charged A's limbs plus the factors' planes;
// past the byte budget the least-recently-used entries are dropped, and
// an entry larger than the whole budget is not retained.  The counters
// feed the service stats and the bench_serve cache-hit-rate column.
//
// Concurrency.  All operations take one mutex (the O(mn) operand
// comparison too, the order of the fingerprint itself); find() hands
// back a shared_ptr<const CachedFactors>, so workers use a hit outside
// the lock while eviction can drop the map's reference safely.  Entries
// are immutable once inserted — the warm solve copies R's triangle
// before inverting tiles, never mutating the cached planes.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <list>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "blas/matrix.hpp"
#include "blas/scalar.hpp"
#include "core/refinement.hpp"

namespace mdlsq::serve {

// FNV-1a over 64-bit words; the seed folds in a domain tag so an empty
// matrix does not hash to the bare offset basis.
inline std::uint64_t fnv1a_mix(std::uint64_t h, std::uint64_t v) noexcept {
  for (int byte = 0; byte < 8; ++byte) {
    h ^= (v >> (8 * byte)) & 0xff;
    h *= 0x100000001b3ull;
  }
  return h;
}

// Fingerprint of a host matrix: shape, limb count, and every limb of
// every element bitwise.  Two matrices with equal values at DIFFERENT
// limb counts hash differently (the limb count is mixed in first), and
// any single-limb perturbation of any entry changes the result.
template <class T>
std::uint64_t fingerprint(const blas::Matrix<T>& a) {
  using traits = blas::scalar_traits<T>;
  std::uint64_t h = 0xcbf29ce484222325ull;
  h = fnv1a_mix(h, 0x6d646c73712d6670ull);  // domain tag
  h = fnv1a_mix(h, static_cast<std::uint64_t>(traits::limbs));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(a.rows()));
  h = fnv1a_mix(h, static_cast<std::uint64_t>(a.cols()));
  auto mix_real = [&h](const auto& x) {
    for (int s = 0; s < traits::limbs; ++s)
      h = fnv1a_mix(h, std::bit_cast<std::uint64_t>(x.limb(s)));
  };
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < a.cols(); ++j) {
      if constexpr (traits::is_complex) {
        mix_real(a(i, j).re);
        mix_real(a(i, j).im);
      } else {
        mix_real(a(i, j));
      }
    }
  return h;
}

// True when `a` and `b` have the same shape and the same bit pattern in
// every limb of every element.
template <class T>
bool same_bits(const blas::Matrix<T>& a, const blas::Matrix<T>& b) noexcept {
  static_assert(sizeof(T) == sizeof(double) *
                                 blas::scalar_traits<T>::doubles_per_element,
                "a scalar is its limbs, with no padding");
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (int i = 0; i < a.rows(); ++i)
    for (int j = 0; j < a.cols(); ++j)
      if (std::memcmp(&a(i, j), &b(i, j), sizeof(T)) != 0) return false;
  return true;
}

// One cache entry: the operand, compared on every hit, and its thin
// resident factors.
template <class T>
struct CachedFactors {
  blas::Matrix<T> a;
  core::ResidentQr<T> qr;

  // Charged against the budget: A's limbs plus the factors' planes.
  std::int64_t bytes() const noexcept {
    return std::int64_t(a.rows()) * a.cols() * std::int64_t(sizeof(T)) +
           qr.bytes();
  }
};

struct FactorCacheStats {
  std::int64_t hits = 0;
  std::int64_t misses = 0;           // verification failures included
  std::int64_t verify_failures = 0;  // key found, operand differed
  std::int64_t insertions = 0;
  std::int64_t evictions = 0;
  std::int64_t bytes = 0;     // currently resident
  std::int64_t entries = 0;   // currently resident

  double hit_rate() const noexcept {
    const std::int64_t n = hits + misses;
    return n > 0 ? static_cast<double>(hits) / static_cast<double>(n) : 0.0;
  }
};

// The LRU itself, for one scalar type.
template <class T>
class FactorCache {
 public:
  using Entry = CachedFactors<T>;

  explicit FactorCache(std::int64_t byte_budget = std::int64_t(64) << 20)
      : budget_(byte_budget) {
    if (byte_budget < 0)
      throw std::invalid_argument(
          "mdlsq: FactorCache byte budget must be >= 0");
  }

  // Looks `key` up and checks that its entry was built from `a`.  A hit
  // promotes the entry to most-recently-used.  An absent key is a miss;
  // an entry for another operand is a miss and a verification failure,
  // and stays cached for its own operand.
  std::shared_ptr<const Entry> find(std::uint64_t key,
                                    const blas::Matrix<T>& a) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it == map_.end()) {
      ++stats_.misses;
      return nullptr;
    }
    if (!same_bits(it->second->entry->a, a)) {
      ++stats_.misses;
      ++stats_.verify_failures;
      return nullptr;
    }
    lru_.splice(lru_.begin(), lru_, it->second);
    ++stats_.hits;
    return it->second->entry;
  }

  // Inserts (or replaces) an entry charged entry->bytes(), then evicts
  // least-recently-used entries until the budget holds again.  An entry
  // that alone exceeds the budget is dropped immediately (counted as an
  // insertion and an eviction), so the cache never pins more than the
  // budget.
  void insert(std::uint64_t key, std::shared_ptr<const Entry> entry) {
    if (entry == nullptr)
      throw std::invalid_argument("mdlsq: FactorCache cannot cache null");
    const std::int64_t bytes = entry->bytes();
    std::lock_guard<std::mutex> lock(mu_);
    auto it = map_.find(key);
    if (it != map_.end()) drop(it->second);
    lru_.push_front(Slot{key, std::move(entry), bytes});
    map_[key] = lru_.begin();
    stats_.bytes += bytes;
    ++stats_.entries;
    ++stats_.insertions;
    while (stats_.bytes > budget_ && !lru_.empty())
      drop(std::prev(lru_.end()));
  }

  FactorCacheStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  struct Slot {
    std::uint64_t key;
    std::shared_ptr<const Entry> entry;
    std::int64_t bytes = 0;
  };
  using Lru = std::list<Slot>;

  void drop(typename Lru::iterator it) {
    stats_.bytes -= it->bytes;
    --stats_.entries;
    ++stats_.evictions;
    map_.erase(it->key);
    lru_.erase(it);
  }

  mutable std::mutex mu_;
  std::int64_t budget_;
  Lru lru_;
  std::unordered_map<std::uint64_t, typename Lru::iterator> map_;
  FactorCacheStats stats_;
};

}  // namespace mdlsq::serve
