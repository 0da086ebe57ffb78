// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// The per-block local evaluation step of paper §III-A: one reducer
// block's records in, every measure of the workflow out. One rule picks
// how a block is aggregated:
//
//  * sort/scan — the shared-sort-order sort/scan of Chen et al. [4]
//    (local/sortscan_evaluator.h) — when the block is already in the sort
//    order (combined sort, §III-D: the sort is then free and every
//    streamable measure costs one comparison per row), when the phase is
//    kSortOnly (the sort-cost breakdown, which only a sort has), or when
//    LocalAggOptions::engine pins kSortScan;
//  * serial morsel — otherwise: the block is aggregated morsel by morsel
//    into one hash table per basic measure, the thread-local table of
//    Leis et al. (SIGMOD'14) with one worker per block. On unsorted input
//    it is several times faster than sort/scan at low and middle group
//    cardinality; on large near-unique blocks sort/scan is faster
//    (DESIGN.md §11).
//
// Evaluation is serial and bit-deterministic (checkpoint resume, ckpt/,
// depends on this). Floating-point sums may differ between the two paths
// by rounding, which is why differential tests compare with a tolerance.

#ifndef CASM_AGG_LOCAL_AGGREGATOR_H_
#define CASM_AGG_LOCAL_AGGREGATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/result.h"
#include "local/measure_table.h"
#include "local/sortscan_evaluator.h"
#include "measure/aggregate.h"
#include "measure/workflow.h"

namespace casm {

enum class LocalAggEngine {
  kSortScan,
  kMorsel,
};

/// Stable lowercase name ("sortscan", "morsel").
const char* LocalAggEngineName(LocalAggEngine engine);

/// Parses a name produced by LocalAggEngineName.
Result<LocalAggEngine> ParseLocalAggEngine(const std::string& name);

struct LocalAggOptions {
  /// kMorsel applies the rule above; kSortScan evaluates every block with
  /// sort/scan (the Fig 4(d) breakdown pins it).
  LocalAggEngine engine = LocalAggEngine::kMorsel;

  /// Rows per columnar batch in the morsel path's batch-at-a-time loop
  /// (coordinate mapping runs vectorized over batch columns — see
  /// agg/batch.h). 0 picks BatchSizeFromEnv() (the CASM_BATCH_SIZE knob);
  /// negative forces the legacy row-at-a-time path (differential tests,
  /// before/after benchmarks). Results are identical either way. The
  /// evaluators' map tasks scan in batches of this size too, resolving
  /// any value <= 0 to BatchSizeFromEnv().
  int64_t batch_rows = 0;
  /// Blocks with fewer rows than this keep the row-at-a-time path even
  /// when batch_rows enables batching: the batch path's fixed setup (the
  /// column transpose buffers) costs more than a tiny block's rows.
  /// 0 batches every block (differential tests). Results are identical
  /// either way.
  int64_t batch_min_block_rows = 64;
  /// Rows per morsel: the morsel path's cancellation-polling unit (and
  /// batch size cap), and the combiner's cardinality-check interval.
  int64_t morsel_rows = 4096;

  // ---- Map-side adaptive combiner (early aggregation, §III-D).
  /// Entries the combiner's table may hold before flushing partials to
  /// the shuffle's global hash partitions (the reducers). Bounds map-side
  /// memory under the PR 3 budget regardless of group cardinality.
  int64_t combiner_max_entries = 1 << 16;
  /// Bypass combining for the rest of the split when, after the first
  /// morsel of pairs, the table retained at least this fraction of them
  /// (near-unique groups: combining buys nothing, the table just burns
  /// memory and hashing time).
  double combiner_bypass_ratio = 0.95;
};

/// Per-call inputs of LocalAggregator::Evaluate. `rows` is `n` contiguous
/// row-major records of schema width.
struct LocalAggContext {
  const int64_t* rows = nullptr;
  int64_t n = 0;
  /// Records already in SortScanEvaluator::RowLess order (combined sort).
  bool assume_sorted = false;
  LocalEvalPhase phase = LocalEvalPhase::kFull;
  /// Polled between morsels; on trip, Evaluate returns early with
  /// incomplete results the caller is expected to discard.
  const CancellationToken* cancel = nullptr;
};

/// Local aggregation over one workflow. Thread-safe: Evaluate is const
/// and one instance is shared across concurrent reducer tasks.
class LocalAggregator {
 public:
  /// `sortscan` is the shared sort/scan plan (the parallel evaluator
  /// already builds one for RowLess / combined sort); null builds and owns
  /// one. `wf` and `sortscan` must outlive the aggregator.
  LocalAggregator(const Workflow* wf, const SortScanEvaluator* sortscan,
                  const LocalAggOptions& options);

  /// Evaluates all measures of the workflow over the block. Updates
  /// `stats` (may be null), including the block counter of the path that
  /// ran (agg_blocks_sortscan or agg_blocks_morsel).
  MeasureResultSet Evaluate(const LocalAggContext& ctx,
                            LocalEvalStats* stats) const;

 private:
  /// Flattened description of one basic measure (hot-loop friendly: no
  /// Workflow indirection per row).
  struct BasicMeasure {
    int index;  // measure index in the workflow
    AggregateFn fn;
    int field;
    const Granularity* granularity;  // borrowed from the workflow
  };

  MeasureResultSet EvaluateMorsel(const LocalAggContext& ctx,
                                  LocalEvalStats* stats) const;

  const Workflow* wf_;
  std::unique_ptr<const SortScanEvaluator> owned_sortscan_;
  const SortScanEvaluator* sortscan_;
  LocalAggOptions options_;
  std::vector<BasicMeasure> basics_;
};

/// Builds the aggregator for `wf` (see the constructor).
std::unique_ptr<LocalAggregator> MakeLocalAggregator(
    const Workflow* wf, const SortScanEvaluator* sortscan = nullptr,
    const LocalAggOptions& options = LocalAggOptions());

}  // namespace casm

#endif  // CASM_AGG_LOCAL_AGGREGATOR_H_
