// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// The runtime chooser (engine (d) of the src/agg subsystem): per block it
// combines a cheap first-morsel cardinality/skew sample with the
// optimizer's cost-model prior and dispatches to the engine the evidence
// favors. Policy rationale in DESIGN.md §11.

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "agg/batch.h"
#include "agg/engines.h"

namespace casm {
namespace agg_internal {
namespace {

// Expected distinct values drawn when `records` records are sampled
// uniformly from a `domain`-sized domain (same closed form as the cost
// model's ExpectedDistinctGroups; inlined here because src/agg sits below
// src/core in the link order).
double ExpectedDistinct(double records, double domain) {
  if (records <= 0 || domain <= 0) return 0;
  if (domain <= 1) return 1;
  const double expected =
      domain * -std::expm1(records * std::log1p(-1.0 / domain));
  return std::min(expected, std::min(records, domain));
}

}  // namespace

AdaptiveAggregator::AdaptiveAggregator(const Workflow* wf,
                                       const SortScanEvaluator* sortscan,
                                       const LocalAggOptions& options)
    : wf_(wf),
      sortscan_(sortscan),
      options_(options),
      sortscan_engine_(wf, sortscan),
      morsel_engine_(wf, options),
      radix_engine_(wf, sortscan, options) {}

LocalAggEngine AdaptiveAggregator::Choose(const LocalAggContext& ctx,
                                          LocalEvalStats* stats) const {
  // Pre-sorted input (combined sort, §III-D) makes the sort/scan's sort
  // free: streaming group detection beats any hash table. kSortOnly is
  // the sort-cost breakdown phase, meaningful only for sort/scan.
  if (ctx.assume_sorted || ctx.phase == LocalEvalPhase::kSortOnly) {
    return LocalAggEngine::kSortScan;
  }
  // Small blocks: any engine finishes in microseconds; the morsel engine
  // has the least setup (no partition array, no sample).
  if (ctx.n < options_.min_choose_rows) return LocalAggEngine::kMorsel;

  // First-morsel sample: distinct finest regions and the heaviest
  // group's share, keyed by region hash (collisions only understate
  // distinctness, and negligibly so at ~2^10 samples in a 64-bit space).
  const Schema& schema = *wf_->schema();
  const int width = schema.num_attributes();
  const int64_t sample = std::min(ctx.n, std::max<int64_t>(
                                             1, options_.sample_rows));
  std::unordered_map<uint64_t, int64_t> freq;
  freq.reserve(static_cast<size_t>(sample) * 2);
  int64_t max_freq = 0;
  const int64_t batch_cap = ctx.n < options_.batch_min_block_rows
                                ? 0
                                : ResolveBatchRows(options_.batch_rows);
  if (batch_cap > 0) {
    // Columnar sample: hash the first batch(es) with one transpose + one
    // MapFromFinestColumn per sort attribute. Same rows, bit-identical
    // hashes — the decision matches the row path exactly.
    const std::vector<int>& attr_order = sortscan_->attr_order();
    const std::vector<LevelId>& sort_levels = sortscan_->sort_levels();
    const int64_t cap = std::min(batch_cap, sample);
    RegionBatchMapper mapper(&schema, cap);
    std::vector<const int64_t*> sort_cols(attr_order.size());
    std::vector<uint64_t> hashes(static_cast<size_t>(cap));
    for (int64_t bb = 0; bb < sample; bb += cap) {
      const int64_t bn = std::min(cap, sample - bb);
      mapper.Load(ctx.rows + bb * width, bn);
      if (stats != nullptr) ++stats->agg_batches;
      for (size_t j = 0; j < attr_order.size(); ++j) {
        const int attr = attr_order[j];
        sort_cols[j] = mapper.MappedColumn(
            attr, sort_levels[static_cast<size_t>(attr)]);
      }
      FinestRegionHashColumns(sort_cols.data(),
                              static_cast<int>(attr_order.size()), bn,
                              hashes.data());
      for (int64_t i = 0; i < bn; ++i) {
        max_freq = std::max(max_freq, ++freq[hashes[static_cast<size_t>(i)]]);
      }
    }
  } else {
    for (int64_t r = 0; r < sample; ++r) {
      const uint64_t h = FinestRegionHash(schema, sortscan_->attr_order(),
                                          sortscan_->sort_levels(),
                                          ctx.rows + r * width);
      max_freq = std::max(max_freq, ++freq[h]);
    }
  }
  if (stats != nullptr) stats->agg_sampled_rows += sample;

  // Skew first: a hot group holding a large sample share collapses inside
  // the morsel engine's thread-local tables but imbalances radix
  // partitions.
  const double skew = static_cast<double>(max_freq) /
                      static_cast<double>(sample);
  if (skew >= options_.skew_morsel_threshold) return LocalAggEngine::kMorsel;

  // Project the block-wide distinct-group count from sample collisions
  // (birthday estimate of the group domain, then expected distinct draws
  // over the full block). The raw sample ratio saturates at 1.0 for every
  // domain much larger than the sample, so it cannot separate "thousands
  // of groups" (radix territory) from "one group per row" (sort/scan
  // territory) — the collision count can.
  const int64_t collisions = sample - static_cast<int64_t>(freq.size());
  double groups;
  if (collisions > 0) {
    const double domain_est = static_cast<double>(sample) *
                              static_cast<double>(sample - 1) /
                              (2.0 * static_cast<double>(collisions));
    groups = ExpectedDistinct(static_cast<double>(ctx.n), domain_est);
  } else {
    // A collision-free sample means the domain dwarfs the sample; treat
    // the block as near-unique.
    groups = static_cast<double>(ctx.n);
  }
  // Floor by the optimizer's prior: the sample sees the block's first
  // rows, which under a clustered shuffle order can understate the
  // block-wide cardinality the cost model predicted.
  if (ctx.expected_groups_hint > 0) {
    groups = std::max(groups, std::min(ctx.expected_groups_hint,
                                       static_cast<double>(ctx.n)));
  }

  // Too few rows per group (ratio high): the hash engines' per-row key
  // hashing and node insertion never earn themselves back — sort/scan's
  // O(n log n) is cheaper all the way up to fully unique groups. Few
  // groups: they collapse inside the morsel engine's thread-local tables
  // with no partitioning pass. In between, radix partitioning keeps every
  // hash table cache-sized.
  const double ratio = groups / static_cast<double>(ctx.n);
  if (ratio >= options_.sortscan_group_ratio) return LocalAggEngine::kSortScan;
  return groups <= static_cast<double>(options_.morsel_group_limit)
             ? LocalAggEngine::kMorsel
             : LocalAggEngine::kRadix;
}

MeasureResultSet AdaptiveAggregator::DoEvaluate(const LocalAggContext& ctx,
                                                LocalEvalStats* stats,
                                                LocalAggEngine* chosen) const {
  *chosen = Choose(ctx, stats);
  LocalAggEngine inner = *chosen;
  switch (*chosen) {
    case LocalAggEngine::kSortScan:
      return sortscan_engine_.DoEvaluate(ctx, stats, &inner);
    case LocalAggEngine::kMorsel:
      return morsel_engine_.DoEvaluate(ctx, stats, &inner);
    case LocalAggEngine::kRadix:
      return radix_engine_.DoEvaluate(ctx, stats, &inner);
    case LocalAggEngine::kAdaptive:
      break;  // unreachable: Choose never returns kAdaptive
  }
  return MeasureResultSet(wf_->num_measures());
}

}  // namespace agg_internal
}  // namespace casm
