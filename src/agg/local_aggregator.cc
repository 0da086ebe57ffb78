// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "agg/local_aggregator.h"

#include <algorithm>
#include <chrono>

#include "agg/batch.h"
#include "common/clock.h"
#include "common/logging.h"
#include "local/derivation.h"
#include "obs/metrics.h"

namespace casm {
namespace {

/// Block counter of one path, resolved once. Increment() is self-guarded,
/// so a disabled registry costs one relaxed load per evaluated block.
MetricsRegistry::Counter* AggBlocksCounter(LocalAggEngine engine) {
  static MetricsRegistry::Counter* const sortscan =
      MetricsRegistry::Global()->GetCounter(
          "casm_localagg_blocks_total",
          "Reducer blocks evaluated, by local aggregation engine.",
          {{"engine", "sortscan"}});
  static MetricsRegistry::Counter* const morsel =
      MetricsRegistry::Global()->GetCounter(
          "casm_localagg_blocks_total",
          "Reducer blocks evaluated, by local aggregation engine.",
          {{"engine", "morsel"}});
  return engine == LocalAggEngine::kSortScan ? sortscan : morsel;
}

}  // namespace

const char* LocalAggEngineName(LocalAggEngine engine) {
  switch (engine) {
    case LocalAggEngine::kSortScan:
      return "sortscan";
    case LocalAggEngine::kMorsel:
      return "morsel";
  }
  return "unknown";
}

Result<LocalAggEngine> ParseLocalAggEngine(const std::string& name) {
  if (name == "sortscan") return LocalAggEngine::kSortScan;
  if (name == "morsel") return LocalAggEngine::kMorsel;
  return Status::InvalidArgument("unknown local aggregation engine '" + name +
                                 "' (expected sortscan or morsel)");
}

LocalAggregator::LocalAggregator(const Workflow* wf,
                                 const SortScanEvaluator* sortscan,
                                 const LocalAggOptions& options)
    : wf_(wf), sortscan_(sortscan), options_(options) {
  CASM_CHECK(wf != nullptr);
  if (sortscan_ == nullptr) {
    owned_sortscan_ = std::make_unique<SortScanEvaluator>(wf);
    sortscan_ = owned_sortscan_.get();
  }
  for (int i : wf->BasicMeasures()) {
    const Measure& m = wf->measure(i);
    basics_.push_back(BasicMeasure{i, m.fn, m.field, &m.granularity});
  }
}

MeasureResultSet LocalAggregator::Evaluate(const LocalAggContext& ctx,
                                           LocalEvalStats* stats) const {
  const LocalAggEngine path =
      ctx.assume_sorted || ctx.phase == LocalEvalPhase::kSortOnly
          ? LocalAggEngine::kSortScan
          : options_.engine;
  if (stats != nullptr) {
    ++(path == LocalAggEngine::kSortScan ? stats->agg_blocks_sortscan
                                         : stats->agg_blocks_morsel);
  }
  AggBlocksCounter(path)->Increment();
  if (path == LocalAggEngine::kMorsel) return EvaluateMorsel(ctx, stats);
  return sortscan_->Evaluate(ctx.rows, ctx.n, ctx.assume_sorted, ctx.phase,
                             stats, ctx.cancel);
}

MeasureResultSet LocalAggregator::EvaluateMorsel(const LocalAggContext& ctx,
                                                 LocalEvalStats* stats) const {
  const auto start = std::chrono::steady_clock::now();
  MeasureResultSet results(wf_->num_measures());
  const Schema& schema = *wf_->schema();
  const int width = schema.num_attributes();
  const size_t num_basics = basics_.size();
  const int64_t morsel = std::max<int64_t>(1, options_.morsel_rows);
  // Batch path (batch_cap > 0): each morsel is processed as columnar
  // sub-batches — one transpose plus one MapFromFinestColumn pass per
  // (attribute, level) replaces a RegionOfRecord per row per measure; the
  // per-row work shrinks to a scratch-Coords gather and the hash probe.
  // Row and batch paths visit rows and measures in the same order, so
  // their results are bit-identical. Capacity is clamped to the block
  // size (reducer blocks are often far smaller than the configured
  // batch), and blocks under the batch_min_block_rows cutoff skip
  // batching entirely: the mapper's fixed setup would cost more than the
  // rows themselves.
  const int64_t batch_cap =
      ctx.n < options_.batch_min_block_rows
          ? 0
          : std::min({agg_internal::ResolveBatchRows(options_.batch_rows),
                      morsel, ctx.n});
  std::vector<CoordsMap<Accumulator>> acc(num_basics);
  int64_t batches = 0;
  std::unique_ptr<agg_internal::RegionBatchMapper> mapper;
  std::vector<std::vector<const int64_t*>> gran_cols(num_basics);
  Coords scratch(static_cast<size_t>(width));
  if (batch_cap > 0) {
    mapper = std::make_unique<agg_internal::RegionBatchMapper>(&schema,
                                                               batch_cap);
  }
  for (int64_t begin = 0; begin < ctx.n; begin += morsel) {
    if (ctx.cancel != nullptr && ctx.cancel->cancelled()) return results;
    const int64_t end = std::min(ctx.n, begin + morsel);
    if (batch_cap > 0) {
      for (int64_t bb = begin; bb < end; bb += batch_cap) {
        const int64_t bn = std::min(batch_cap, end - bb);
        mapper->Load(ctx.rows + bb * width, bn);
        ++batches;
        for (size_t b = 0; b < num_basics; ++b) {
          mapper->GranularityColumns(*basics_[b].granularity, &gran_cols[b]);
        }
        for (int64_t i = 0; i < bn; ++i) {
          for (size_t b = 0; b < num_basics; ++b) {
            const BasicMeasure& info = basics_[b];
            agg_internal::RegionBatchMapper::FillCoords(gran_cols[b], i,
                                                        &scratch);
            acc[b].try_emplace(scratch, info.fn).first->second.Add(
                static_cast<double>(mapper->raw_column(info.field)[i]));
          }
        }
      }
    } else {
      for (int64_t r = begin; r < end; ++r) {
        const int64_t* row = ctx.rows + r * width;
        for (size_t b = 0; b < num_basics; ++b) {
          const BasicMeasure& info = basics_[b];
          acc[b].try_emplace(RegionOfRecord(schema, *info.granularity, row),
                             info.fn)
              .first->second.Add(static_cast<double>(row[info.field]));
        }
      }
    }
  }

  // The tables hold the block's final groups: finalize them straight into
  // the result, then derive the composites in dependency order.
  for (size_t b = 0; b < num_basics; ++b) {
    FinalizeInto(acc[b], &results.mutable_values(basics_[b].index));
  }
  DeriveComposites(*wf_, &results, ctx.cancel);

  if (stats != nullptr) {
    stats->records += ctx.n;
    stats->hashed_measures += static_cast<int64_t>(num_basics);
    stats->agg_batches += batches;
    stats->eval_seconds += SecondsSince(start);
  }
  return results;
}

std::unique_ptr<LocalAggregator> MakeLocalAggregator(
    const Workflow* wf, const SortScanEvaluator* sortscan,
    const LocalAggOptions& options) {
  return std::make_unique<LocalAggregator>(wf, sortscan, options);
}

}  // namespace casm
