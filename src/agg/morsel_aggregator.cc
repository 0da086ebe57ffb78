// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Morsel-driven thread-local pre-aggregation (engine (a) of the src/agg
// subsystem). Phase 1: workers take statically assigned morsels of rows
// and aggregate them into bounded thread-local hash tables; a full table
// spills its entries into global hash partitions selected by the group's
// coordinate hash. Phase 2: each partition merges its spilled entries —
// in fixed shard order, so results do not depend on thread scheduling —
// and the union of the (disjoint) partitions is the block result. A
// block that runs as one shard (no pool, or a single morsel) skips the
// spill and phase 2: its one table is finalized directly.

#include <algorithm>
#include <chrono>

#include "agg/batch.h"
#include "agg/engines.h"
#include "common/thread_pool.h"

namespace casm {
namespace agg_internal {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One spilled thread-local table entry, destined for a global partition.
struct SpilledGroup {
  int32_t slot;  // index into basics_
  Coords coords;
  Accumulator acc;
};

}  // namespace

MorselAggregator::MorselAggregator(const Workflow* wf,
                                   const LocalAggOptions& options)
    : wf_(wf), options_(options), basics_(CollectBasics(*wf)) {}

MeasureResultSet MorselAggregator::DoEvaluate(const LocalAggContext& ctx,
                                              LocalEvalStats* stats,
                                              LocalAggEngine* chosen) const {
  (void)chosen;
  const auto start = std::chrono::steady_clock::now();
  MeasureResultSet results(wf_->num_measures());
  // kSortOnly measures the sort/scan's sort stage; a hash engine has no
  // sort, so the phase is a no-op here.
  if (ctx.phase != LocalEvalPhase::kFull) {
    if (stats != nullptr) stats->records += ctx.n;
    return results;
  }
  const Schema& schema = *wf_->schema();
  const int width = schema.num_attributes();
  const size_t num_basics = basics_.size();
  const int64_t morsel = std::max<int64_t>(1, options_.morsel_rows);
  const int64_t num_morsels = (ctx.n + morsel - 1) / morsel;
  const size_t partitions = static_cast<size_t>(
      std::max(1, options_.morsel_partitions));
  int shards = 1;
  if (ctx.pool != nullptr) {
    shards = static_cast<int>(std::clamp<int64_t>(
        num_morsels, 1, ctx.pool->num_threads()));
  }

  // Phase 1: thread-local pre-aggregation. With several shards, full
  // tables spill into the shard's partition buckets (appended, merged in
  // phase 2); a single shard's table is the block result.
  //
  // Batch path (batch_cap > 0): each morsel is processed as columnar
  // sub-batches — one transpose plus one MapFromFinestColumn pass per
  // (attribute, level) replaces a RegionOfRecord per row per measure;
  // the per-row work shrinks to a scratch-Coords gather and the hash
  // probe. Row and batch paths visit rows and measures in the
  // same order, so their results are bit-identical.
  // Capacity is clamped to the block size (reducer blocks are often far
  // smaller than the configured batch), and blocks under the
  // batch_min_block_rows cutoff skip batching entirely: the mapper's
  // fixed setup would cost more than the rows themselves.
  const int64_t batch_cap =
      ctx.n < options_.batch_min_block_rows
          ? 0
          : std::min({ResolveBatchRows(options_.batch_rows), morsel, ctx.n});
  // Aggregates the shard's morsels into `local` and returns the batches it
  // ran. With `parts` (several shards), a full table spills into the
  // shard's partition buckets; with none, the table simply grows.
  auto run_shard = [&](size_t shard, std::vector<AccMap>& local,
                       std::vector<std::vector<SpilledGroup>>* parts) {
    int64_t batches = 0;
    size_t local_entries = 0;
    auto spill_local = [&] {
      for (size_t b = 0; b < num_basics; ++b) {
        for (auto& [coords, acc] : local[b]) {
          const size_t p = CoordsHash()(coords) % partitions;
          (*parts)[p].push_back(SpilledGroup{static_cast<int32_t>(b), coords,
                                             std::move(acc)});
        }
        local[b].clear();
      }
      local_entries = 0;
    };
    std::unique_ptr<RegionBatchMapper> mapper;
    std::vector<std::vector<const int64_t*>> gran_cols(num_basics);
    Coords scratch(static_cast<size_t>(width));
    if (batch_cap > 0) {
      mapper = std::make_unique<RegionBatchMapper>(&schema, batch_cap);
    }
    for (int64_t mi = static_cast<int64_t>(shard); mi < num_morsels;
         mi += shards) {
      if (ctx.cancel != nullptr && ctx.cancel->cancelled()) break;
      const int64_t begin = mi * morsel;
      const int64_t end = std::min(ctx.n, begin + morsel);
      if (batch_cap > 0) {
        for (int64_t bb = begin; bb < end; bb += batch_cap) {
          const int64_t bn = std::min(batch_cap, end - bb);
          mapper->Load(ctx.rows + bb * width, bn);
          ++batches;
          for (size_t b = 0; b < num_basics; ++b) {
            mapper->GranularityColumns(*basics_[b].granularity,
                                       &gran_cols[b]);
          }
          for (int64_t i = 0; i < bn; ++i) {
            for (size_t b = 0; b < num_basics; ++b) {
              const BasicMeasure& info = basics_[b];
              RegionBatchMapper::FillCoords(gran_cols[b], i, &scratch);
              auto [it, inserted] = local[b].try_emplace(scratch, info.fn);
              if (inserted) ++local_entries;
              it->second.Add(static_cast<double>(
                  mapper->raw_column(info.field)[i]));
            }
          }
        }
      } else {
        for (int64_t r = begin; r < end; ++r) {
          const int64_t* row = ctx.rows + r * width;
          for (size_t b = 0; b < num_basics; ++b) {
            const BasicMeasure& info = basics_[b];
            auto [it, inserted] = local[b].try_emplace(
                RegionOfRecord(schema, *info.granularity, row), info.fn);
            if (inserted) ++local_entries;
            it->second.Add(static_cast<double>(row[info.field]));
          }
        }
      }
      if (parts != nullptr &&
          local_entries >= static_cast<size_t>(options_.max_local_entries)) {
        spill_local();
      }
    }
    if (parts != nullptr) spill_local();
    return batches;
  };

  int64_t agg_batches = 0;
  if (shards == 1) {
    // One shard (every block the evaluator runs: it passes no pool): its
    // table holds the block's final groups, so they are finalized straight
    // into the result — no spill, partitions or merge.
    std::vector<AccMap> local(num_basics);
    agg_batches = run_shard(0, local, nullptr);
    if (ctx.cancel != nullptr && ctx.cancel->cancelled()) return results;
    FinalizeAndDerive(*wf_, basics_, std::move(local), ctx.cancel, &results);
  } else {
    std::vector<std::vector<std::vector<SpilledGroup>>> shard_parts(
        static_cast<size_t>(shards),
        std::vector<std::vector<SpilledGroup>>(partitions));
    std::vector<int64_t> shard_batches(static_cast<size_t>(shards), 0);
    // Errors cannot happen in run_shard (no allocation failure handling
    // beyond bad_alloc, which ParallelFor surfaces as Status); a
    // cancellation mid-flight leaves partial shard output, which is fine
    // because the caller discards results once the token has tripped.
    (void)ctx.pool->ParallelFor(
        static_cast<size_t>(shards),
        [&](size_t shard) {
          std::vector<AccMap> local(num_basics);
          shard_batches[shard] = run_shard(shard, local, &shard_parts[shard]);
        },
        ctx.cancel);
    if (ctx.cancel != nullptr && ctx.cancel->cancelled()) return results;
    for (int64_t batches : shard_batches) agg_batches += batches;

    // Phase 2: merge each partition's spilled entries in shard order. The
    // same coordinates always hash to the same partition, so partitions
    // are disjoint per measure and merge independently (parallelizable
    // without affecting merge order).
    std::vector<std::vector<AccMap>> part_acc(partitions);
    auto merge_partition = [&](size_t p) {
      std::vector<AccMap>& maps = part_acc[p];
      maps.resize(num_basics);
      for (int s = 0; s < shards; ++s) {
        for (SpilledGroup& g : shard_parts[static_cast<size_t>(s)][p]) {
          AccMap& map = maps[static_cast<size_t>(g.slot)];
          auto it = map.find(g.coords);
          if (it == map.end()) {
            map.emplace(std::move(g.coords), std::move(g.acc));
          } else {
            it->second.Merge(g.acc);
          }
        }
      }
    };
    (void)ctx.pool->ParallelFor(partitions, merge_partition, ctx.cancel);
    if (ctx.cancel != nullptr && ctx.cancel->cancelled()) return results;

    // The block result is the plain union of the (disjoint) partitions.
    for (size_t b = 0; b < num_basics; ++b) {
      MeasureValueMap& out = results.mutable_values(basics_[b].index);
      size_t groups = 0;
      for (size_t p = 0; p < partitions; ++p) {
        groups += part_acc[p][b].size();
      }
      out.reserve(groups);
      for (size_t p = 0; p < partitions; ++p) {
        for (const auto& [coords, acc] : part_acc[p][b]) {
          out.emplace(coords, acc.Result());
        }
      }
    }
    DeriveComposites(*wf_, ctx.cancel, &results);
  }

  if (stats != nullptr) {
    stats->records += ctx.n;
    stats->hashed_measures += static_cast<int64_t>(num_basics);
    stats->agg_batches += agg_batches;
    stats->eval_seconds += SecondsSince(start);
  }
  return results;
}

}  // namespace agg_internal
}  // namespace casm
