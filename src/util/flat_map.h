#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>
#include <vector>

namespace topo::util {

/// Flat open-addressing hash table from uint64 keys to small plain values:
/// the replacement for node-based std::unordered_map on the delivery and
/// admission hot paths (the pool's hash/id/account indexes and the
/// network's stream and batch maps).
///
/// Layout and policy:
///  - one array of {key, value} slots, capacity a power of two, linear
///    probing from a Fibonacci-hashed home slot (the multiply spreads
///    sequential ids and packed (from << 32 | to) stream keys alike);
///  - key 0 marks an empty slot, so a real key 0 lives in a side slot;
///  - the table doubles before it passes 3/4 load, and erase shifts the
///    rest of the probe run backwards instead of leaving tombstones, so a
///    lookup never walks past a dead slot and churn never degrades probes;
///  - no allocation until the first insert; clear() releases the array.
///
/// Iteration (for_each) visits entries in slot order, which depends on the
/// insert/erase history and the capacity. Callers that turn a walk into an
/// artifact must sort it first (as Network::snapshot does); nothing that
/// reaches a report, trace or snapshot may depend on that order.
///
/// Pointers and references into the table are invalidated by any insert
/// (growth moves every entry) and by erase (backward shift moves
/// neighbours). Values that must stay put across inserts belong in a
/// separate reference-stable store, keyed through the table by index.
template <typename V>
class FlatMap64 {
  static_assert(std::is_trivially_destructible_v<V>,
                "FlatMap64 copies slots around; keep owning values in a separate store");

 public:
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  /// Allocated slot count (0 before the first insert).
  size_t capacity() const { return slots_.size(); }
  /// Slot where the probe for a nonzero `key` starts at the current
  /// capacity (the std::unordered_map::bucket analogue). Requires
  /// capacity() > 0.
  size_t bucket(uint64_t key) const {
    assert(!slots_.empty());
    return home(key);
  }

  V* find(uint64_t key) {
    return const_cast<V*>(static_cast<const FlatMap64&>(*this).find(key));
  }
  const V* find(uint64_t key) const {
    if (key == kEmpty) return has_zero_ ? &zero_value_ : nullptr;
    if (slots_.empty()) return nullptr;
    for (size_t i = home(key);; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.key == key) return &s.value;
      if (s.key == kEmpty) return nullptr;
    }
  }
  bool contains(uint64_t key) const { return find(key) != nullptr; }

  /// Value for a key that must be present.
  const V& at(uint64_t key) const {
    const V* v = find(key);
    assert(v != nullptr && "FlatMap64::at: key not present");
    return *v;
  }

  /// Finds `key` or inserts it with a value-initialized V.
  V& operator[](uint64_t key) { return *try_emplace(key).first; }

  /// Inserts `key` -> `value` unless `key` is present; returns the entry and
  /// whether it was inserted (std::unordered_map::try_emplace semantics).
  std::pair<V*, bool> try_emplace(uint64_t key, const V& value = V{}) {
    if (key == kEmpty) {
      if (has_zero_) return {&zero_value_, false};
      has_zero_ = true;
      zero_value_ = value;
      ++size_;
      return {&zero_value_, true};
    }
    if (slots_.empty() || (stored() + 1) * 4 > slots_.size() * 3) grow();
    size_t i = home(key);
    for (;; i = (i + 1) & mask_) {
      Slot& s = slots_[i];
      if (s.key == key) return {&s.value, false};
      if (s.key == kEmpty) break;
    }
    slots_[i] = Slot{key, value};
    ++size_;
    return {&slots_[i].value, true};
  }

  /// Inserts or overwrites.
  void insert_or_assign(uint64_t key, const V& value) {
    auto [v, inserted] = try_emplace(key, value);
    if (!inserted) *v = value;
  }

  /// Removes `key`; returns whether it was present.
  bool erase(uint64_t key) {
    if (key == kEmpty) {
      if (!has_zero_) return false;
      has_zero_ = false;
      zero_value_ = V{};
      --size_;
      return true;
    }
    if (slots_.empty()) return false;
    size_t i = home(key);
    for (;; i = (i + 1) & mask_) {
      if (slots_[i].key == key) break;
      if (slots_[i].key == kEmpty) return false;
    }
    // Backward shift: pull each later member of the probe run whose home
    // does not lie cyclically in (i, j] into the hole, so every remaining
    // key stays reachable from its home without tombstones.
    for (size_t j = (i + 1) & mask_; slots_[j].key != kEmpty; j = (j + 1) & mask_) {
      const size_t h = home(slots_[j].key);
      if (((j - h) & mask_) >= ((j - i) & mask_)) {
        slots_[i] = slots_[j];
        i = j;
      }
    }
    slots_[i] = Slot{};
    --size_;
    return true;
  }

  /// Drops every entry and releases the slot array.
  void clear() {
    std::vector<Slot>().swap(slots_);
    mask_ = 0;
    shift_ = 64;
    size_ = 0;
    has_zero_ = false;
    zero_value_ = V{};
  }

  /// Calls f(key, value) for every entry, in unspecified (slot) order.
  template <typename F>
  void for_each(F&& f) const {
    if (has_zero_) f(kEmpty, zero_value_);
    for (const Slot& s : slots_) {
      if (s.key != kEmpty) f(s.key, s.value);
    }
  }

 private:
  static constexpr uint64_t kEmpty = 0;
  static constexpr size_t kMinCapacity = 8;

  struct Slot {
    uint64_t key = kEmpty;
    V value{};
  };

  /// Entries held in the slot array (the key-0 side slot excluded).
  size_t stored() const { return size_ - (has_zero_ ? 1 : 0); }

  size_t home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ULL) >> shift_);
  }

  void grow() {
    const size_t cap = slots_.empty() ? kMinCapacity : slots_.size() * 2;
    std::vector<Slot> old;
    old.swap(slots_);
    slots_.resize(cap);
    mask_ = cap - 1;
    shift_ = 64;
    for (size_t c = cap; c > 1; c >>= 1) --shift_;
    for (const Slot& s : old) {
      if (s.key == kEmpty) continue;
      size_t i = home(s.key);
      while (slots_[i].key != kEmpty) i = (i + 1) & mask_;
      slots_[i] = s;
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  unsigned shift_ = 64;  ///< 64 - log2(capacity)
  size_t size_ = 0;      ///< entries, the side slot included
  bool has_zero_ = false;
  V zero_value_{};
};

}  // namespace topo::util
