// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Map-side adaptive combiner for early aggregation (paper §III-D): one
// per map split, it pre-aggregates (block, measure, region) groups into a
// bounded hash table and emits mergeable partial states. Two adaptive
// behaviors replace the unbounded per-split table it supersedes:
//
//  * bounded memory — when the table reaches `combiner_max_entries` it
//    flushes every partial to the shuffle's global hash partitions (the
//    reducers merge multiple partials per group anyway, so flushing is
//    always safe) instead of growing without regard to the PR 3 memory
//    budget;
//  * cardinality bypass — after the first morsel of pairs it measures the
//    achieved reduction; near-unique groups (no reduction) switch the
//    rest of the split to direct emission, skipping the table entirely.

#ifndef CASM_AGG_COMBINER_H_
#define CASM_AGG_COMBINER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "agg/local_aggregator.h"
#include "cube/region.h"
#include "measure/aggregate.h"
#include "measure/workflow.h"

namespace casm {

class Emitter;
class TraceRecorder;

class EarlyAggCombiner {
 public:
  /// `wf` and `trace` (may be null) must outlive the combiner. Emitted
  /// values are `1 + num_attrs + Accumulator::kPartialSize` int64s:
  /// [measure id, region coords..., partial state bits...].
  EarlyAggCombiner(const Workflow* wf, const LocalAggOptions& options,
                   TraceRecorder* trace);

  /// Pre-aggregates `row` under block key `block_key` for every basic
  /// measure, flushing partials to `emitter` when the table fills.
  void AddRecord(const int64_t* block_key, const int64_t* row,
                 Emitter* emitter);

  /// Emits every buffered partial (end of split).
  void Flush(Emitter* emitter);

  /// (block, measure, region) contributions seen / pairs emitted so far.
  int64_t pairs_in() const { return pairs_in_; }
  int64_t pairs_out() const { return pairs_out_; }
  /// True once the cardinality check disabled combining for this split.
  bool bypassed() const { return bypassed_; }

 private:
  struct VecHash {
    size_t operator()(const std::vector<int64_t>& v) const {
      return static_cast<size_t>(HashCoordWords(v.data(), v.size()));
    }
  };

  void EmitPartial(const std::vector<int64_t>& group_key,
                   const Accumulator& acc, Emitter* emitter);

  const Workflow* wf_;
  const Schema* schema_;
  LocalAggOptions options_;
  TraceRecorder* trace_;
  std::vector<int> basics_;
  int num_attrs_;
  int value_width_;
  std::unordered_map<std::vector<int64_t>, Accumulator, VecHash> partials_;
  std::vector<int64_t> group_key_;  // scratch
  std::vector<int64_t> value_;      // scratch
  int64_t pairs_in_ = 0;
  int64_t pairs_out_ = 0;
  int64_t flushes_ = 0;
  bool bypassed_ = false;
  bool bypass_checked_ = false;
};

}  // namespace casm

#endif  // CASM_AGG_COMBINER_H_
