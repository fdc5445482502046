// Open-addressed ObjectKey -> arena-slot index, the fast probe behind the
// LRU/FIFO/CLOCK caches' hit path (docs/PERFORMANCE.md), and the same table
// over other integer keys and values (the simulator's per-server fetch
// times).
//
// Compared to the std::unordered_map the caches used before, a lookup is
// one hash, one cache line of keys probed linearly, and no pointer chase
// through buckets/nodes — the dominant cost of the simulator's per-request
// path.  Values are 32-bit arena slots (node storage lives in the caches'
// flat vectors), deletion is backward-shift (no tombstones, so probe
// distances never degrade), and growth doubles at ~3/4 load.

#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace cdn::cache {

/// Linear-probing hash table from integer keys to values.  Any key value is
/// valid: emptiness is tracked on the value side, where `Nil::value` marks
/// an empty bucket and is never stored.
template <typename Key, typename Value, typename Nil>
class BasicProbeTable {
 public:
  /// Returned by find() on a miss; never a valid value.
  static constexpr Value kNil = Nil::value;

  /// Value of `key`, or kNil.
  Value find(Key key) const noexcept {
    if (vals_.empty()) return kNil;
    std::size_t j = bucket(key);
    while (true) {
      const Value v = vals_[j];
      if (v == kNil) return kNil;
      if (keys_[j] == key) return v;
      j = (j + 1) & mask_;
    }
  }

  bool contains(Key key) const noexcept { return find(key) != kNil; }

  /// Inserts `key -> value`.  `key` must not be present; `value` != kNil.
  void insert(Key key, Value value) {
    if (full()) grow();
    std::size_t j = bucket(key);
    while (vals_[j] != kNil) j = (j + 1) & mask_;
    keys_[j] = key;
    vals_[j] = value;
    ++size_;
  }

  /// Maps `key` to `value`, present or not.  `value` != kNil.
  void insert_or_assign(Key key, Value value) {
    if (!vals_.empty()) {
      for (std::size_t j = bucket(key); vals_[j] != kNil; j = (j + 1) & mask_) {
        if (keys_[j] == key) {
          vals_[j] = value;
          return;
        }
      }
    }
    insert(key, value);
  }

  /// Whether the next insert of a new key grows the table.
  bool full() const noexcept { return (size_ + 1) * 4 > capacity() * 3; }

  /// Drops every entry whose key satisfies `pred`, rebuilding the table
  /// so the survivors take at most half of its buckets.
  template <typename Pred>
  void erase_if(Pred pred) {
    std::vector<Key> old_keys = std::move(keys_);
    std::vector<Value> old_vals = std::move(vals_);
    rehash(std::max(old_vals.size(), kMinCapacity), old_keys, old_vals, pred);
    if (size_ * 2 > capacity()) grow();
  }

  /// Removes `key`; returns false when absent.  Backward-shift deletion:
  /// every displaced follower of the probe chain moves one hole closer to
  /// its ideal bucket, so the table never accumulates tombstones.
  bool erase(Key key) noexcept {
    if (vals_.empty()) return false;
    std::size_t j = bucket(key);
    while (true) {
      if (vals_[j] == kNil) return false;
      if (keys_[j] == key) break;
      j = (j + 1) & mask_;
    }
    std::size_t hole = j;
    std::size_t k = (hole + 1) & mask_;
    while (vals_[k] != kNil) {
      const std::size_t ideal = bucket(keys_[k]);
      // Move k into the hole iff the hole lies between k's ideal bucket
      // and k (cyclically) — i.e. k is displaced at least past the hole.
      if (((k - ideal) & mask_) >= ((k - hole) & mask_)) {
        keys_[hole] = keys_[k];
        vals_[hole] = vals_[k];
        hole = k;
      }
      k = (k + 1) & mask_;
    }
    vals_[hole] = kNil;
    --size_;
    return true;
  }

  void clear() noexcept {
    std::fill(vals_.begin(), vals_.end(), kNil);
    size_ = 0;
  }

  /// Pre-sizes the table for `n` keys without rehashing on the way.
  void reserve(std::size_t n) {
    std::size_t cap = kMinCapacity;
    while (cap * 3 < (n + 1) * 4) cap *= 2;
    if (cap > capacity()) rehash(cap);
  }

  std::size_t size() const noexcept { return size_; }

 private:
  static constexpr std::size_t kMinCapacity = 16;  // power of two

  // splitmix64 finalizer: full-avalanche spread of the (sequential-ish)
  // object ids over the bucket space.
  static std::uint64_t mix(std::uint64_t x) noexcept {
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
  }

  std::size_t bucket(Key key) const noexcept {
    return static_cast<std::size_t>(mix(key)) & mask_;
  }

  std::size_t capacity() const noexcept { return vals_.size(); }

  void grow() { rehash(vals_.empty() ? kMinCapacity : capacity() * 2); }

  void rehash(std::size_t new_capacity) {
    std::vector<Key> old_keys = std::move(keys_);
    std::vector<Value> old_vals = std::move(vals_);
    rehash(new_capacity, old_keys, old_vals, [](Key) { return false; });
  }

  /// Rebuilds the table at `new_capacity` from the old buckets, without
  /// the entries whose key satisfies `drop`.
  template <typename Pred>
  void rehash(std::size_t new_capacity, const std::vector<Key>& old_keys,
              const std::vector<Value>& old_vals, Pred drop) {
    keys_.assign(new_capacity, 0);
    vals_.assign(new_capacity, kNil);
    mask_ = new_capacity - 1;
    size_ = 0;
    for (std::size_t j = 0; j < old_vals.size(); ++j) {
      if (old_vals[j] == kNil || drop(old_keys[j])) continue;
      std::size_t k = bucket(old_keys[j]);
      while (vals_[k] != kNil) k = (k + 1) & mask_;
      keys_[k] = old_keys[j];
      vals_[k] = old_vals[j];
      ++size_;
    }
  }

  std::vector<Key> keys_;
  std::vector<Value> vals_;  // kNil = empty bucket
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

struct NoSlot {
  static constexpr std::uint32_t value = 0xffffffffu;
};

/// ObjectKey -> 32-bit arena slot, the caches' index.
using ProbeTable = BasicProbeTable<std::uint64_t, std::uint32_t, NoSlot>;

}  // namespace cdn::cache
