// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Competing parallel group-by engines behind one LocalAggregator
// interface — the per-block local evaluation step of paper §III-A, no
// longer welded to a single sort/scan strategy:
//
//  * kSortScan — the shared-sort-order sort/scan of Chen et al. [4]
//    (local/sortscan_evaluator.h). Unbeatable when the framework sort
//    already established the order (combined sort, §III-D): its "sort" is
//    then free and every streamable measure costs one comparison per row.
//  * kMorsel — morsel-driven thread-local pre-aggregation: each worker
//    aggregates fixed-size morsels of rows into a bounded thread-local
//    hash table and spills full tables into global hash partitions, which
//    are merged per partition afterwards (the two-phase design of
//    Leis et al., SIGMOD'14). Wins when groups are few or skewed: hot
//    groups collapse inside the thread-local table and never contend.
//  * kRadix — two-phase radix partitioning: rows are scattered into 2^k
//    partitions by a hash of their finest-granularity region, each
//    partition is aggregated independently (cache-sized hash tables),
//    and coarse-granularity groups that span partitions are combined by
//    a central Accumulator::Merge pass. Wins at high group cardinality,
//    where one big hash table thrashes caches and sorting pays
//    O(n log n) hierarchy lookups.
//  * kAdaptive — a runtime chooser: per block it samples the first
//    morsel for distinct-group ratio and skew, blends in the optimizer's
//    cost-model prior (ExecutionPlan::predicted_block_groups), and
//    dispatches to one of the engines above. See DESIGN.md §11.
//
// Determinism: with a null ThreadPool every engine is serial and
// bit-deterministic (checkpoint resume, ckpt/, depends on this). With a
// pool, work is split into statically assigned shards that are merged in
// fixed shard order, so results are deterministic for a given shard
// count; floating-point sums may still differ across *engines* by
// rounding, which is why differential tests compare with a tolerance.

#ifndef CASM_AGG_LOCAL_AGGREGATOR_H_
#define CASM_AGG_LOCAL_AGGREGATOR_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/cancellation.h"
#include "common/result.h"
#include "local/measure_table.h"
#include "local/sortscan_evaluator.h"
#include "measure/workflow.h"

namespace casm {

class ThreadPool;
class TraceRecorder;

namespace agg_internal {
class AdaptiveAggregator;
}  // namespace agg_internal

enum class LocalAggEngine {
  kSortScan,
  kMorsel,
  kRadix,
  kAdaptive,
};

/// Stable lowercase name ("sortscan", "morsel", "radix", "adaptive").
const char* LocalAggEngineName(LocalAggEngine engine);

/// Parses a name produced by LocalAggEngineName.
Result<LocalAggEngine> ParseLocalAggEngine(const std::string& name);

/// The CASM_LOCAL_AGG environment knob: a valid engine name forces that
/// engine for every block; unset or unparseable returns kAdaptive.
LocalAggEngine LocalAggEngineFromEnv();

struct LocalAggOptions {
  /// Engine evaluating every block. kAdaptive chooses per block.
  LocalAggEngine engine = LocalAggEngineFromEnv();

  /// Rows per columnar batch in the hash engines' batch-at-a-time paths
  /// (coordinate mapping and region hashing run vectorized over batch
  /// columns — see agg/batch.h). 0 picks BatchSizeFromEnv() (the
  /// CASM_BATCH_SIZE knob); negative forces the engines' legacy
  /// row-at-a-time path (differential tests, before/after benchmarks).
  /// Results are identical either way. The evaluators' map tasks scan in
  /// batches of this size too, resolving any value <= 0 to
  /// BatchSizeFromEnv().
  int64_t batch_rows = 0;
  /// Blocks with fewer rows than this keep the row-at-a-time path even
  /// when batch_rows enables batching: the batch path's fixed setup (the
  /// column transpose buffers) costs more than a tiny block's rows.
  /// 0 batches every block (differential tests). Results are identical
  /// either way.
  int64_t batch_min_block_rows = 64;

  // ---- Morsel engine.
  /// Rows per morsel (the unit of work distribution and cancellation
  /// polling).
  int64_t morsel_rows = 4096;
  /// Thread-local hash-table entries (across measures) before a spill to
  /// the global hash partitions. Bounds per-worker memory regardless of
  /// group cardinality. Only a block split into several shards (a pool
  /// and more than one morsel) spills; a single shard's table is the
  /// block result and grows to the block's group count.
  int64_t max_local_entries = 1 << 15;
  /// Global hash partitions (power of two); used only with several
  /// shards, like max_local_entries.
  int morsel_partitions = 64;

  // ---- Radix engine.
  /// log2 of the partition count.
  int radix_bits = 5;

  // ---- Adaptive chooser.
  /// Rows of the first-morsel cardinality/skew sample.
  int64_t sample_rows = 1024;
  /// Blocks smaller than this skip sampling and use the morsel engine
  /// (any engine finishes small blocks in microseconds).
  int64_t min_choose_rows = 4096;
  /// Choose sort/scan when the projected distinct-group ratio (block-wide
  /// groups / rows, estimated from sample collisions and floored by the
  /// cost-model prior) reaches this fraction. Hash aggregation pays one
  /// hashed lookup per row and one table node per group and only earns
  /// them back when each group collapses many rows; below ~1/ratio = 8
  /// rows per group, sort+stream's O(n log n) is cheaper. At the extreme
  /// (near-unique groups, ratio -> 1) aggregation buys nothing at all.
  /// The cutoff was measured with heap-allocated region keys; re-measure
  /// before relying on it (DESIGN.md §11).
  double sortscan_group_ratio = 0.125;
  /// Choose morsel when the projected block-wide distinct-group count is
  /// at most this (the groups collapse inside thread-local tables with no
  /// partitioning pass); above it, radix partitioning keeps each
  /// partition's table cache-sized.
  int64_t morsel_group_limit = 2048;
  /// Choose morsel regardless of cardinality when the heaviest sampled
  /// group holds at least this fraction of the sample (skew: hot groups
  /// collapse in thread-local tables, but imbalance radix partitions).
  double skew_morsel_threshold = 0.2;

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
  /// Polled between morsels/partitions; on trip, engines return early
  /// with incomplete results the caller is expected to discard.
  const CancellationToken* cancel = nullptr;
  /// Optional intra-block parallelism. Null = serial (bit-deterministic).
  ThreadPool* pool = nullptr;
  /// Optional run tracing: every Evaluate records one "localagg" span
  /// named after the engine that ran. Not owned; may be null.
  TraceRecorder* trace = nullptr;
  int64_t task = -1;
  /// Optimizer prior for the block's distinct finest-granularity groups
  /// (ExecutionPlan::predicted_block_groups); 0 = unknown.
  double expected_groups_hint = 0;
};

/// One group-by engine over one workflow. Thread-safe: Evaluate is const
/// and instances are shared across concurrent reducer tasks.
class LocalAggregator {
 public:
  virtual ~LocalAggregator() = default;

  /// The engine this aggregator dispatches as (kAdaptive for the chooser).
  virtual LocalAggEngine engine() const = 0;

  /// Evaluates all measures of the workflow over the block. Updates
  /// `stats` (may be null) including the per-engine block counters, and
  /// records a "localagg" trace span when `ctx.trace` is enabled.
  MeasureResultSet Evaluate(const LocalAggContext& ctx,
                            LocalEvalStats* stats) const;

 protected:
  /// Engine body. `*chosen` is pre-set to engine(); the adaptive engine
  /// overwrites it with the engine it dispatched to.
  virtual MeasureResultSet DoEvaluate(const LocalAggContext& ctx,
                                      LocalEvalStats* stats,
                                      LocalAggEngine* chosen) const = 0;

  /// Set by MakeLocalAggregator when the aggregator owns its sort/scan
  /// plan (caller passed none).
  std::unique_ptr<const SortScanEvaluator> owned_sortscan_;

  /// The chooser dispatches into sibling engines' DoEvaluate directly so
  /// the block is counted and traced exactly once (by the outer wrapper).
  friend class agg_internal::AdaptiveAggregator;
  /// The factory installs owned_sortscan_ after construction.
  friend std::unique_ptr<LocalAggregator> MakeLocalAggregator(
      const Workflow* wf, const SortScanEvaluator* sortscan,
      const LocalAggOptions& options);
};

/// Builds the engine selected by `options.engine` over `wf`. `sortscan`
/// is the shared sort/scan plan (the parallel evaluator already builds
/// one for RowLess / combined sort); it must outlive the aggregator. Pass
/// null to let the aggregator construct and own its own plan. `wf` must
/// outlive the aggregator.
std::unique_ptr<LocalAggregator> MakeLocalAggregator(
    const Workflow* wf, const SortScanEvaluator* sortscan = nullptr,
    const LocalAggOptions& options = LocalAggOptions());

}  // namespace casm

#endif  // CASM_AGG_LOCAL_AGGREGATOR_H_
