// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "agg/local_aggregator.h"

#include <cstdlib>

#include "agg/engines.h"
#include "common/logging.h"
#include "common/math.h"
#include "local/derivation.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace casm {
namespace {

/// Per-engine block counter family, resolved once per engine label.
/// Increment() is self-guarded, so a disabled registry costs one relaxed
/// load per evaluated block.
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
  static MetricsRegistry::Counter* const radix =
      MetricsRegistry::Global()->GetCounter(
          "casm_localagg_blocks_total",
          "Reducer blocks evaluated, by local aggregation engine.",
          {{"engine", "radix"}});
  switch (engine) {
    case LocalAggEngine::kSortScan:
      return sortscan;
    case LocalAggEngine::kMorsel:
      return morsel;
    case LocalAggEngine::kRadix:
      return radix;
    case LocalAggEngine::kAdaptive:
      break;
  }
  return nullptr;
}

}  // namespace

const char* LocalAggEngineName(LocalAggEngine engine) {
  switch (engine) {
    case LocalAggEngine::kSortScan:
      return "sortscan";
    case LocalAggEngine::kMorsel:
      return "morsel";
    case LocalAggEngine::kRadix:
      return "radix";
    case LocalAggEngine::kAdaptive:
      return "adaptive";
  }
  return "unknown";
}

Result<LocalAggEngine> ParseLocalAggEngine(const std::string& name) {
  if (name == "sortscan") return LocalAggEngine::kSortScan;
  if (name == "morsel") return LocalAggEngine::kMorsel;
  if (name == "radix") return LocalAggEngine::kRadix;
  if (name == "adaptive") return LocalAggEngine::kAdaptive;
  return Status::InvalidArgument(
      "unknown local aggregation engine '" + name +
      "' (expected sortscan, morsel, radix or adaptive)");
}

LocalAggEngine LocalAggEngineFromEnv() {
  const char* env = std::getenv("CASM_LOCAL_AGG");
  if (env == nullptr || *env == '\0') return LocalAggEngine::kAdaptive;
  Result<LocalAggEngine> parsed = ParseLocalAggEngine(env);
  return parsed.ok() ? parsed.value() : LocalAggEngine::kAdaptive;
}

MeasureResultSet LocalAggregator::Evaluate(const LocalAggContext& ctx,
                                           LocalEvalStats* stats) const {
  const bool tracing = ctx.trace != nullptr && ctx.trace->enabled();
  const double start = tracing ? ctx.trace->NowSeconds() : 0;
  LocalAggEngine chosen = engine();
  MeasureResultSet results = DoEvaluate(ctx, stats, &chosen);
  if (stats != nullptr) {
    switch (chosen) {
      case LocalAggEngine::kSortScan:
        ++stats->agg_blocks_sortscan;
        break;
      case LocalAggEngine::kMorsel:
        ++stats->agg_blocks_morsel;
        break;
      case LocalAggEngine::kRadix:
        ++stats->agg_blocks_radix;
        break;
      case LocalAggEngine::kAdaptive:
        break;  // the chooser always resolves to a concrete engine
    }
  }
  if (MetricsRegistry::Counter* counter = AggBlocksCounter(chosen)) {
    counter->Increment();
  }
  if (tracing) {
    ctx.trace->RecordSpan("localagg", LocalAggEngineName(chosen), start,
                          ctx.trace->NowSeconds(), ctx.task, /*attempt=*/0,
                          TraceOutcome::kNone,
                          "rows=" + std::to_string(ctx.n));
  }
  return results;
}

std::unique_ptr<LocalAggregator> MakeLocalAggregator(
    const Workflow* wf, const SortScanEvaluator* sortscan,
    const LocalAggOptions& options) {
  CASM_CHECK(wf != nullptr);
  std::unique_ptr<const SortScanEvaluator> owned;
  if (sortscan == nullptr) {
    owned = std::make_unique<SortScanEvaluator>(wf);
    sortscan = owned.get();
  }
  std::unique_ptr<LocalAggregator> out;
  switch (options.engine) {
    case LocalAggEngine::kSortScan:
      out = std::make_unique<agg_internal::SortScanAggregator>(wf, sortscan);
      break;
    case LocalAggEngine::kMorsel:
      out = std::make_unique<agg_internal::MorselAggregator>(wf, options);
      break;
    case LocalAggEngine::kRadix:
      out = std::make_unique<agg_internal::RadixAggregator>(wf, sortscan,
                                                            options);
      break;
    case LocalAggEngine::kAdaptive:
      out = std::make_unique<agg_internal::AdaptiveAggregator>(wf, sortscan,
                                                               options);
      break;
  }
  out->owned_sortscan_ = std::move(owned);
  return out;
}

namespace agg_internal {

std::vector<BasicMeasure> CollectBasics(const Workflow& wf) {
  std::vector<BasicMeasure> basics;
  for (int i : wf.BasicMeasures()) {
    const Measure& m = wf.measure(i);
    basics.push_back(BasicMeasure{i, m.fn, m.field, &m.granularity});
  }
  return basics;
}

void DeriveComposites(const Workflow& wf, const CancellationToken* cancel,
                      MeasureResultSet* results) {
  for (int i = 0; i < wf.num_measures(); ++i) {
    if (cancel != nullptr && cancel->cancelled()) return;
    if (wf.measure(i).op != MeasureOp::kAggregateRecords) {
      DeriveCompositeMeasure(wf, i, results);
    }
  }
}

void FinalizeAndDerive(const Workflow& wf,
                       const std::vector<BasicMeasure>& basics,
                       std::vector<AccMap>&& acc,
                       const CancellationToken* cancel,
                       MeasureResultSet* results) {
  for (size_t b = 0; b < basics.size(); ++b) {
    MeasureValueMap& out = results->mutable_values(basics[b].index);
    out.reserve(acc[b].size());
    for (auto& [coords, accumulator] : acc[b]) {
      out.emplace(coords, accumulator.Result());
    }
  }
  DeriveComposites(wf, cancel, results);
}

uint64_t FinestRegionHash(const Schema& schema,
                          const std::vector<int>& attr_order,
                          const std::vector<LevelId>& sort_levels,
                          const int64_t* row) {
  // FNV-1a over the mapped sort-level values, finished with an avalanche
  // (fmix64) so the radix engine can take low bits as the partition id.
  uint64_t h = 1469598103934665603ULL;
  for (int attr : attr_order) {
    const uint64_t v = static_cast<uint64_t>(schema.attribute(attr).MapFromFinest(
        row[attr], sort_levels[static_cast<size_t>(attr)]));
    for (int shift = 0; shift < 64; shift += 8) {
      h ^= (v >> shift) & 0xffu;
      h *= 1099511628211ULL;
    }
  }
  return Fmix64(h);
}

MeasureResultSet SortScanAggregator::DoEvaluate(const LocalAggContext& ctx,
                                                LocalEvalStats* stats,
                                                LocalAggEngine* chosen) const {
  (void)chosen;
  return sortscan_->Evaluate(ctx.rows, ctx.n, ctx.assume_sorted, ctx.phase,
                             stats, ctx.cancel);
}

}  // namespace agg_internal
}  // namespace casm
