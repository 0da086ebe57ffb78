// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Regions: hyper-rectangles in cube space identified by a granularity plus
// one coordinate per attribute (paper §II). Measure results, grouping and
// the distribution scheme all operate on region coordinates, so this header
// supplies the coordinate arithmetic, hashing and pretty-printing.

#ifndef CASM_CUBE_REGION_H_
#define CASM_CUBE_REGION_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <string>

#include "common/logging.h"
#include "common/math.h"
#include "cube/granularity.h"
#include "cube/schema.h"

namespace casm {

/// Coordinates of a region at some (externally known) granularity:
/// one level value per attribute, in schema order. ALL attributes hold 0.
///
/// An inline fixed-capacity value type: result maps hold one per value
/// and reducer blocks are often a row or two, so a heap allocation per
/// key would dominate local evaluation. kMaxSize is the widest schema
/// Schema::Create accepts. Slots past size() are always zero (index only
/// below size()), so the defaulted equality may compare whole objects.
class Coords {
 public:
  static constexpr size_t kMaxSize = Schema::kMaxAttributes;

  using value_type = int64_t;
  using iterator = int64_t*;
  using const_iterator = const int64_t*;

  Coords() = default;
  /// `n` zero coordinates.
  explicit Coords(size_t n) : size_(CheckedSize(n)) {}
  Coords(std::initializer_list<int64_t> values)
      : Coords(values.begin(), values.end()) {}
  template <std::forward_iterator It>
  Coords(It first, It last)
      : size_(CheckedSize(static_cast<size_t>(std::distance(first, last)))) {
    std::copy(first, last, v_);
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  int64_t& operator[](size_t i) { return v_[i]; }
  int64_t operator[](size_t i) const { return v_[i]; }
  int64_t* data() { return v_; }
  const int64_t* data() const { return v_; }
  iterator begin() { return v_; }
  iterator end() { return v_ + size_; }
  const_iterator begin() const { return v_; }
  const_iterator end() const { return v_ + size_; }

  bool operator==(const Coords&) const = default;
  /// Lexicographic, like std::vector.
  bool operator<(const Coords& other) const {
    return std::lexicographical_compare(begin(), end(), other.begin(),
                                        other.end());
  }

 private:
  static uint32_t CheckedSize(size_t n) {
    CASM_CHECK_LE(n, kMaxSize) << "region wider than Coords::kMaxSize";
    return static_cast<uint32_t>(n);
  }

  uint32_t size_ = 0;
  int64_t v_[kMaxSize] = {};
};

/// Maps a record (finest-level point, `values[i]` for attribute i) to the
/// coordinates of the region containing it at `gran`.
Coords RegionOfRecord(const Schema& schema, const Granularity& gran,
                      const int64_t* values);

/// Maps region coordinates from granularity `from` to the containing
/// region at `to`. Requires `to.IsMoreGeneralOrEqual(from)`.
Coords MapRegionUp(const Schema& schema, const Granularity& from,
                   const Coords& coords, const Granularity& to);

/// Renders as "[kw=3, T=17]" using attribute names, omitting ALL attributes.
std::string CoordsToString(const Schema& schema, const Granularity& gran,
                           const Coords& coords);

/// The one region-key hash: a word-at-a-time multiply-xorshift over `n`
/// coordinates, finished with a full avalanche (fmix64) so every output
/// bit depends on every input bit and `hash % 2^k` partition picks stay
/// uniform. Used by CoordsHash and the map-side combiner's group keys.
inline uint64_t HashCoordWords(const int64_t* words, size_t n) {
  uint64_t h = 0x9e3779b97f4a7c15ULL ^ n;
  for (size_t i = 0; i < n; ++i) {
    h = (h ^ static_cast<uint64_t>(words[i])) * 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 29;
  }
  return Fmix64(h);
}

/// Hash for unordered containers keyed by Coords. Deliberately not
/// noexcept: libstdc++ then caches each node's hash, which
/// MergeDisjointValues relies on to splice nodes without re-hashing.
struct CoordsHash {
  size_t operator()(const Coords& coords) const {
    return static_cast<size_t>(HashCoordWords(coords.data(), coords.size()));
  }
};

}  // namespace casm

#endif  // CASM_CUBE_REGION_H_
