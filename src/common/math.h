// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Integer helpers used throughout region arithmetic, plus a streaming
// quantile sketch shared by the engine's attempt statistics and the
// run-report histograms. All region and offset math in CASM uses floor
// semantics (towards negative infinity) so that hierarchies behave
// uniformly for negative offsets.

#ifndef CASM_COMMON_MATH_H_
#define CASM_COMMON_MATH_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"

namespace casm {

/// Floor division: largest q with q * b <= a. Requires b > 0.
constexpr int64_t FloorDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  int64_t r = a % b;
  return (r != 0 && r < 0) ? q - 1 : q;
}

/// Ceiling division: smallest q with q * b >= a. Requires b > 0.
constexpr int64_t CeilDiv(int64_t a, int64_t b) {
  int64_t q = a / b;
  int64_t r = a % b;
  return (r != 0 && r > 0) ? q + 1 : q;
}

/// Floor modulo: a - FloorDiv(a, b) * b, always in [0, b). Requires b > 0.
constexpr int64_t FloorMod(int64_t a, int64_t b) {
  int64_t r = a % b;
  return r < 0 ? r + b : r;
}

/// MurmurHash3's 64-bit finalizer: a bijective full avalanche.
constexpr uint64_t Fmix64(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

static_assert(FloorDiv(7, 2) == 3);
static_assert(FloorDiv(-7, 2) == -4);
static_assert(CeilDiv(7, 2) == 4);
static_assert(CeilDiv(-7, 2) == -3);
static_assert(FloorMod(-7, 2) == 1);

/// Streaming quantile estimator: exact while at most `cap` values have
/// been added, an Algorithm-R reservoir past that. Deterministic (fixed
/// seed), copyable, and mergeable — Merge() lets per-job digests combine
/// into multi-run quantiles instead of the old max-over-jobs
/// approximation (MapReduceMetrics::Accumulate). Quantile(q) uses the
/// upper-median convention the engine always used for its attempt p50:
/// sorted[min(n-1, floor(q*n))], so sketches under `cap` reproduce the
/// previous sort-based values bit-for-bit.
///
/// Not thread-safe; callers serialize (the engine adds under its phase
/// lock, reports digest a snapshot).
class QuantileSketch {
 public:
  static constexpr size_t kDefaultCap = 4096;

  explicit QuantileSketch(size_t cap = kDefaultCap)
      : cap_(cap == 0 ? 1 : cap) {}

  /// Adds one observation.
  void Add(double value) {
    ++count_;
    max_ = count_ == 1 ? value : std::max(max_, value);
    min_ = count_ == 1 ? value : std::min(min_, value);
    sum_ += value;
    if (samples_.size() < cap_) {
      samples_.push_back(value);
      return;
    }
    // Reservoir step: keep each of the `count_` values seen so far with
    // equal probability cap_/count_.
    const uint64_t slot = rng_.Uniform(static_cast<uint64_t>(count_));
    if (slot < cap_) samples_[static_cast<size_t>(slot)] = value;
  }

  /// Folds `other`'s observations into this sketch. When the combined
  /// samples fit under the cap the merge stays exact; otherwise each
  /// side's samples are subsampled proportionally to the counts they
  /// represent.
  void Merge(const QuantileSketch& other) {
    if (other.count_ == 0) return;
    if (count_ == 0) {
      *this = other;
      return;
    }
    max_ = std::max(max_, other.max_);
    min_ = std::min(min_, other.min_);
    sum_ += other.sum_;
    const int64_t total = count_ + other.count_;
    if (samples_.size() + other.samples_.size() <= cap_) {
      samples_.insert(samples_.end(), other.samples_.begin(),
                      other.samples_.end());
      count_ = total;
      return;
    }
    const size_t take_mine = std::min(
        samples_.size(),
        static_cast<size_t>(static_cast<double>(cap_) *
                            static_cast<double>(count_) /
                            static_cast<double>(total)));
    const size_t take_theirs = std::min(other.samples_.size(),
                                        cap_ - take_mine);
    SubsampleInPlace(&samples_, take_mine);
    std::vector<double> theirs = other.samples_;
    SubsampleInPlace(&theirs, take_theirs);
    samples_.insert(samples_.end(), theirs.begin(), theirs.end());
    count_ = total;
  }

  /// The q-quantile of the observations (0 when empty). q in [0, 1];
  /// Quantile(0.5) is the upper median, Quantile(1) the sampled max.
  double Quantile(double q) const {
    if (samples_.empty()) return 0;
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    const double clamped = std::min(std::max(q, 0.0), 1.0);
    const size_t index =
        std::min(sorted.size() - 1,
                 static_cast<size_t>(clamped *
                                     static_cast<double>(sorted.size())));
    return sorted[index];
  }

  int64_t count() const { return count_; }
  /// Exact extrema and sum over every observation (not just the sample).
  double Max() const { return count_ == 0 ? 0 : max_; }
  double Min() const { return count_ == 0 ? 0 : min_; }
  double Sum() const { return sum_; }
  double Mean() const {
    return count_ == 0 ? 0 : sum_ / static_cast<double>(count_);
  }

 private:
  /// Shrinks `v` to `keep` elements chosen uniformly (partial
  /// Fisher-Yates with the sketch's deterministic rng).
  void SubsampleInPlace(std::vector<double>* v, size_t keep) {
    if (v->size() <= keep) return;
    for (size_t i = 0; i < keep; ++i) {
      const size_t j =
          i + static_cast<size_t>(
                  rng_.Uniform(static_cast<uint64_t>(v->size() - i)));
      std::swap((*v)[i], (*v)[j]);
    }
    v->resize(keep);
  }

  size_t cap_;
  Rng rng_{0x9d5a1c6e4b3f2807ULL};  // fixed seed: deterministic sketches
  int64_t count_ = 0;
  double max_ = 0;
  double min_ = 0;
  double sum_ = 0;
  std::vector<double> samples_;
};

}  // namespace casm

#endif  // CASM_COMMON_MATH_H_
