// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// CoordsMap: the one hash table keyed by region coordinates. Local
// evaluation builds thousands of small tables per query (one per measure
// per reducer block) and assembles each query's answer from about 10^5
// values, so a node per entry — an allocation, a pointer chase and a
// cache miss on every probe — dominated the reduce side. This table is
// flat, in the style of the fixed-width aggregation tables of Leis et
// al. (SIGMOD'14):
//
//  * entries live densely in insertion order, so iteration is a linear
//    scan whose order depends only on the sequence of operations (never
//    on capacity or addresses): serial evaluation stays bit-deterministic;
//  * a power-of-two array of 32-bit entry indices is probed linearly and
//    kept at most half full;
//  * each entry's 32-bit hash is stored beside it, so growth re-slots
//    without re-hashing, probes compare hashes before keys, and merges
//    and result assembly insert with the stored hash
//    (try_emplace_hashed).
//
// Erasure is swap-and-pop on the entries plus backward-shift deletion on
// the slots (no tombstones), so `it = erase(it)` still visits every entry.
// Iterators and references are invalidated by any insertion or erasure.

#ifndef CASM_CUBE_COORDS_MAP_H_
#define CASM_CUBE_COORDS_MAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "cube/region.h"

namespace casm {

template <typename V>
class CoordsMap {
 public:
  using key_type = Coords;
  using mapped_type = V;
  using value_type = std::pair<Coords, V>;
  using iterator = value_type*;
  using const_iterator = const value_type*;

  /// Most entries a table can hold (entry indices are 32-bit, one value is
  /// the empty-slot marker, and the slot array doubles the count).
  static constexpr size_t kMaxSize = size_t{1} << 30;

  /// The stored hash of `key`: the low bits of the region-key hash.
  static uint32_t Hash(const Coords& key) {
    return static_cast<uint32_t>(HashCoordWords(key.data(), key.size()));
  }

  CoordsMap() = default;
  CoordsMap(std::initializer_list<value_type> init) {
    reserve(init.size());
    for (const value_type& kv : init) try_emplace(kv.first, kv.second);
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  /// Slots in the probe array (a power of two, or 0 before any insert).
  size_t bucket_count() const { return slots_.size(); }

  iterator begin() { return entries_.data(); }
  iterator end() { return entries_.data() + entries_.size(); }
  const_iterator begin() const { return entries_.data(); }
  const_iterator end() const { return entries_.data() + entries_.size(); }

  /// The stored hash of the entry at `it`.
  uint32_t hash_at(const_iterator it) const {
    return hashes_[static_cast<size_t>(it - begin())];
  }

  iterator find(const Coords& key) {
    const uint32_t e = FindIndex(Hash(key), key);
    return e == kEmpty ? end() : begin() + e;
  }
  const_iterator find(const Coords& key) const {
    const uint32_t e = FindIndex(Hash(key), key);
    return e == kEmpty ? end() : begin() + e;
  }

  V& at(const Coords& key) {
    iterator it = find(key);
    CASM_CHECK(it != end()) << "CoordsMap::at: key not present";
    return it->second;
  }
  const V& at(const Coords& key) const {
    const_iterator it = find(key);
    CASM_CHECK(it != end()) << "CoordsMap::at: key not present";
    return it->second;
  }
  V& operator[](const Coords& key) { return try_emplace(key).first->second; }

  /// Inserts (key, V(args...)) unless `key` is present; the bool says
  /// whether it inserted. `args` are not touched when the key is present.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const Coords& key, Args&&... args) {
    return try_emplace_hashed(Hash(key), key, std::forward<Args>(args)...);
  }
  /// Same as try_emplace (the unordered_map spelling callers use).
  template <typename... Args>
  std::pair<iterator, bool> emplace(const Coords& key, Args&&... args) {
    return try_emplace(key, std::forward<Args>(args)...);
  }
  /// try_emplace with `hash` == Hash(key) already known (a stored hash).
  template <typename... Args>
  std::pair<iterator, bool> try_emplace_hashed(uint32_t hash,
                                               const Coords& key,
                                               Args&&... args) {
    size_t s = Probe(hash, key);
    if (s != kNoSlot && slots_[s] != kEmpty) {
      return {begin() + slots_[s], false};
    }
    if (NeedsGrowth(entries_.size() + 1)) {
      Rehash(SlotsFor(std::max(entries_.size() + 1, 2 * entries_.size())));
      s = EmptySlotFor(hash);
    }
    const uint32_t e = static_cast<uint32_t>(entries_.size());
    entries_.emplace_back(std::piecewise_construct, std::forward_as_tuple(key),
                          std::forward_as_tuple(std::forward<Args>(args)...));
    hashes_.push_back(hash);
    slots_[s] = e;
    return {begin() + e, true};
  }

  /// Removes the entry at `it` by moving the last entry into its place;
  /// returns an iterator to that position (the moved entry, or end()).
  iterator erase(const_iterator it) {
    const uint32_t e = static_cast<uint32_t>(it - begin());
    EraseSlot(SlotOf(e));
    const uint32_t last = static_cast<uint32_t>(entries_.size() - 1);
    if (e != last) {
      slots_[SlotOf(last)] = e;
      entries_[e] = std::move(entries_[last]);
      hashes_[e] = hashes_[last];
    }
    entries_.pop_back();
    hashes_.pop_back();
    return begin() + e;
  }

  /// Sizes the table to hold `n` entries without growing. Requires
  /// n <= kMaxSize (decoders check counts they read first).
  void reserve(size_t n) {
    CASM_CHECK_LE(n, kMaxSize) << "CoordsMap::reserve beyond kMaxSize";
    entries_.reserve(n);
    hashes_.reserve(n);
    if (NeedsGrowth(n)) Rehash(SlotsFor(n));
  }

  /// Removes every entry; keeps the allocated capacity for reuse.
  void clear() {
    entries_.clear();
    hashes_.clear();
    std::fill(slots_.begin(), slots_.end(), kEmpty);
  }

  void swap(CoordsMap& other) noexcept {
    entries_.swap(other.entries_);
    hashes_.swap(other.hashes_);
    slots_.swap(other.slots_);
  }

  /// Moves `other`'s entries in (with their stored hashes), leaving
  /// `other` empty. Returns false if some key was already here — that
  /// entry of `other` is dropped and this one's value kept (a caller
  /// reports distribution rule 2).
  bool MergeDisjoint(CoordsMap&& other) {
    if (empty()) {
      swap(other);
      return true;
    }
    bool disjoint = true;
    for (size_t i = 0; i < other.entries_.size(); ++i) {
      value_type& kv = other.entries_[i];
      disjoint &= try_emplace_hashed(other.hashes_[i], kv.first,
                                     std::move(kv.second))
                      .second;
    }
    other.clear();
    return disjoint;
  }

  /// Same keys with equal values, in any order.
  bool operator==(const CoordsMap& other) const {
    if (size() != other.size()) return false;
    for (size_t i = 0; i < entries_.size(); ++i) {
      const uint32_t e = other.FindIndex(hashes_[i], entries_[i].first);
      if (e == kEmpty || !(other.entries_[e].second == entries_[i].second)) {
        return false;
      }
    }
    return true;
  }

 private:
  static constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();
  static constexpr size_t kNoSlot = std::numeric_limits<size_t>::max();
  static constexpr size_t kMinSlots = 8;

  /// At most half the slots may be occupied.
  bool NeedsGrowth(size_t n) const { return 2 * n > slots_.size(); }
  static size_t SlotsFor(size_t n) {
    size_t slots = kMinSlots;
    while (slots < 2 * n) slots *= 2;
    return slots;
  }
  size_t mask() const { return slots_.size() - 1; }

  /// The slot holding `key`, or the empty slot ending its probe run;
  /// kNoSlot while no slot array exists.
  size_t Probe(uint32_t hash, const Coords& key) const {
    if (slots_.empty()) return kNoSlot;
    for (size_t s = hash & mask();; s = (s + 1) & mask()) {
      const uint32_t e = slots_[s];
      if (e == kEmpty ||
          (hashes_[e] == hash && entries_[e].first == key)) {
        return s;
      }
    }
  }
  uint32_t FindIndex(uint32_t hash, const Coords& key) const {
    const size_t s = Probe(hash, key);
    return s == kNoSlot ? kEmpty : slots_[s];
  }
  size_t EmptySlotFor(uint32_t hash) const {
    size_t s = hash & mask();
    while (slots_[s] != kEmpty) s = (s + 1) & mask();
    return s;
  }
  /// The slot pointing at entry `e` (which must be present).
  size_t SlotOf(uint32_t e) const {
    size_t s = hashes_[e] & mask();
    while (slots_[s] != e) s = (s + 1) & mask();
    return s;
  }

  /// Empties slot `hole`, shifting later members of its probe run back so
  /// every entry stays reachable from its home slot.
  void EraseSlot(size_t hole) {
    for (size_t s = (hole + 1) & mask(); slots_[s] != kEmpty;
         s = (s + 1) & mask()) {
      const size_t home = hashes_[slots_[s]] & mask();
      // The entry may fill the hole if the hole lies on its probe path,
      // i.e. cyclically within [home, s).
      if (((s - home) & mask()) >= ((s - hole) & mask())) {
        slots_[hole] = slots_[s];
        hole = s;
      }
    }
    slots_[hole] = kEmpty;
  }

  void Rehash(size_t num_slots) {
    slots_.assign(num_slots, kEmpty);
    for (size_t e = 0; e < hashes_.size(); ++e) {
      slots_[EmptySlotFor(hashes_[e])] = static_cast<uint32_t>(e);
    }
  }

  std::vector<value_type> entries_;
  std::vector<uint32_t> hashes_;  // hashes_[e] == Hash(entries_[e].first)
  std::vector<uint32_t> slots_;   // entry index or kEmpty
};

}  // namespace casm

#endif  // CASM_CUBE_COORDS_MAP_H_
