// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// EvaluateParallel and EvaluateParallelShared are thin wrappers over one
// evaluation pass (RunEvaluationPass), run inside one QueryRun
// (core/query_run.h): a solo run is its one-member case and a shared batch
// its k-member case, so the two cannot diverge.

#include "core/parallel_evaluator.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <memory>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "agg/combiner.h"
#include "agg/local_aggregator.h"
#include "common/clock.h"
#include "common/logging.h"
#include "common/math.h"
#include "core/coverage.h"
#include "core/keygen.h"
#include "core/query_run.h"
#include "core/shared_evaluator.h"
#include "data/record_batch.h"
#include "local/derivation.h"
#include "mr/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace casm {
namespace {

/// One member workflow of an evaluation pass: its local evaluation
/// machinery and the per-reducer shards its owned results assemble in.
struct MemberRun {
  const Workflow* wf = nullptr;
  std::unique_ptr<SortScanEvaluator> local_eval;
  std::unique_ptr<LocalAggregator> local_agg;
  std::optional<ResultShards> shards;
};

/// Erases, in place, the results whose region the block does not own;
/// returns how many it dropped.
int64_t FilterOwned(const Workflow& wf, const std::vector<KeyGenAttr>& keygen,
                    const int64_t* block, MeasureResultSet* results) {
  const Schema& schema = *wf.schema();
  int64_t filtered = 0;
  for (int i = 0; i < wf.num_measures(); ++i) {
    const Measure& m = wf.measure(i);
    MeasureValueMap& values = results->mutable_values(i);
    for (auto it = values.begin(); it != values.end();) {
      if (BlockOwnsRegion(schema, m, keygen, block, it->first)) {
        ++it;
      } else {
        it = values.erase(it);
        ++filtered;
      }
    }
  }
  return filtered;
}

}  // namespace

void ApplyEngineOptions(const ParallelEvalOptions& options,
                        MapReduceSpec* spec) {
  spec->reducer_memory_limit_pairs = options.reducer_memory_limit_pairs;
  spec->memory_budget_bytes = options.memory_budget_bytes;
  spec->emitter_spill_threshold_bytes = options.emitter_spill_threshold_bytes;
  spec->max_task_attempts = options.max_task_attempts;
  spec->fault_plan = options.fault_plan;
  spec->retry_backoff_initial_ms = options.retry_backoff_initial_ms;
  spec->retry_backoff_max_ms = options.retry_backoff_max_ms;
  spec->deadline_seconds = options.deadline_seconds;
  spec->cancel = options.cancel;
  spec->speculative_execution = options.speculative_execution;
  spec->speculation_latency_multiple = options.speculation_latency_multiple;
  spec->speculation_min_completed_fraction =
      options.speculation_min_completed_fraction;
  spec->speculation_min_runtime_seconds =
      options.speculation_min_runtime_seconds;
  spec->trace = options.trace;
  spec->flight = options.flight;
  spec->progress = options.progress;
  spec->query_label = options.query_label;
}

namespace {

/// Evaluates one early-aggregation block: merges the shuffled partial
/// states per (measure, region), then derives the composite measures. A
/// cancelled group returns early with a partial set the caller discards.
MeasureResultSet MergePartials(const Workflow& wf, const GroupView& group,
                               LocalEvalStats* stats) {
  const int num_attrs = wf.schema()->num_attributes();
  const auto eval_start = std::chrono::steady_clock::now();
  std::vector<std::unordered_map<Coords, Accumulator, CoordsHash>> acc(
      static_cast<size_t>(wf.num_measures()));
  MeasureResultSet block_results(wf.num_measures());
  double partial[Accumulator::kPartialSize];
  for (int64_t i = 0; i < group.size(); ++i) {
    if ((i & 4095) == 0 && group.cancelled()) return block_results;
    const int64_t* v = group.value(i);
    const int mi = static_cast<int>(v[0]);
    Coords coords(v + 1, v + 1 + num_attrs);
    for (int p = 0; p < Accumulator::kPartialSize; ++p) {
      partial[p] = std::bit_cast<double>(v[1 + num_attrs + p]);
    }
    Accumulator incoming =
        Accumulator::FromPartial(wf.measure(mi).fn, partial);
    auto& map = acc[static_cast<size_t>(mi)];
    auto it = map.find(coords);
    if (it == map.end()) {
      map.emplace(std::move(coords), std::move(incoming));
    } else {
      it->second.Merge(incoming);
    }
  }
  for (int mi : wf.BasicMeasures()) {
    MeasureValueMap& out_map = block_results.mutable_values(mi);
    for (auto& [coords, accumulator] : acc[static_cast<size_t>(mi)]) {
      out_map.emplace(coords, accumulator.Result());
    }
  }
  if (!DeriveComposites(wf, &block_results, group.cancellation_token())) {
    return block_results;
  }
  // These are shuffled partial-state pairs, not raw input records —
  // counting them as `records` would inflate the early-agg path's stats
  // relative to raw redistribution.
  stats->merged_partials += group.size();
  stats->eval_seconds += SecondsSince(eval_start);
  return block_results;
}

/// Calls `fn(block_key, row)` for every block each of the `n` scanned
/// records starting at table row `first_row` replicates to (ForEachBlock
/// over its key-level coordinates `levels`).
template <typename Fn>
void ForEachRecordBlock(const Table& table,
                        const std::vector<KeyGenAttr>& keygen,
                        const int64_t* const* levels, int64_t first_row,
                        int64_t n, Fn&& fn) {
  const size_t num_attrs = keygen.size();
  std::vector<int64_t> g(num_attrs);
  std::vector<int64_t> key(num_attrs);
  for (int64_t i = 0; i < n; ++i) {
    for (size_t a = 0; a < num_attrs; ++a) g[a] = levels[a][i];
    const int64_t* row = table.row(first_row + i);
    ForEachBlock(keygen, g, &key, [&](const int64_t* k) { fn(k, row); });
  }
}

/// The evaluation pass of paper §III over N >= 1 member workflows sharing
/// one schema: redistribute the table's records to blocks by the plan's
/// distribution key (a record of an annotated key replicates to every
/// block whose coverage contains it), evaluate every member inside each
/// block, keep only the regions the block owns, union each reduce task's
/// blocks into a lock-free per-reducer shard, and flush every shard into
/// its member once, when the task ends. Raw-record plans evaluate each
/// block with the members' local aggregation engines; early-aggregation
/// plans ship and merge mapper-side partial states. Early aggregation and
/// combined sort need exactly one member: the combiner and the framework
/// sort order are per workflow. Callers validate the plan and pass their
/// QueryRun's JobOptions(). Engine failures come back as "parallel
/// evaluation failed: <engine message>".
Result<SharedEvalResult> RunEvaluationPass(
    const std::vector<const Workflow*>& workflows, const Table& table,
    const ExecutionPlan& plan, const ParallelEvalOptions& options,
    double* input_locality) {
  CASM_CHECK(!workflows.empty());
  CASM_CHECK(workflows.size() == 1 ||
             (!plan.early_aggregation && !plan.combined_sort));
  const Schema& schema = *workflows[0]->schema();
  const int num_attrs = schema.num_attributes();
  const std::vector<KeyGenAttr> keygen = BuildKeyGen(schema, plan);
  TraceRecorder* const trace = options.trace;

  // Per-block local evaluation (src/agg): sort/scan for pre-sorted blocks
  // and the sort-only phase, the serial morsel path otherwise. It shares
  // its member's sort/scan plan, so RowLess (combined sort) and the local
  // step can never disagree on order.
  const size_t num_reducers =
      static_cast<size_t>(std::max(0, options.num_reducers));
  std::vector<MemberRun> members(workflows.size());
  for (size_t i = 0; i < members.size(); ++i) {
    MemberRun& m = members[i];
    m.wf = workflows[i];
    m.local_eval = std::make_unique<SortScanEvaluator>(m.wf);
    m.local_agg =
        MakeLocalAggregator(m.wf, m.local_eval.get(), options.local_agg);
    m.shards.emplace(m.wf->num_measures(), options.num_reducers);
  }
  // Reducer r's block row buffer, shared by the members and reused across
  // the task's blocks; like the shards, only r's owning execution uses it.
  std::vector<std::vector<int64_t>> block_rows(num_reducers);

  MapReduceEngine engine(options.num_threads);
  MapReduceSpec spec;
  spec.num_mappers = options.num_mappers;
  spec.num_reducers = options.num_reducers;
  spec.key_width = num_attrs;
  spec.map_only = options.phase == ParallelEvalPhase::kMapOnly;
  spec.skip_reduce = options.phase == ParallelEvalPhase::kShuffleOnly;
  ApplyEngineOptions(options, &spec);

  DistributedFile::Assignment dfs_assignment;
  if (options.input_file != nullptr) {
    const DistributedFile& file = *options.input_file;
    dfs_assignment = file.AssignSplits(options.num_mappers);
    *input_locality = dfs_assignment.LocalityFraction();
    spec.split_fn = [&file, &dfs_assignment](int mapper) {
      std::vector<std::pair<int64_t, int64_t>> ranges;
      for (int b : dfs_assignment.mapper_blocks[static_cast<size_t>(mapper)]) {
        ranges.emplace_back(file.block(b).begin_row, file.block(b).end_row);
      }
      return ranges;
    };
  }

  // Referenced by the map lambdas below: must outlive engine.Run().
  const int64_t batch_rows = options.local_agg.batch_rows;
  bool any_annotated = false;
  for (const KeyGenAttr& kg : keygen) any_annotated |= kg.annotated;
  if (!plan.early_aggregation) {
    // ---- Raw-record redistribution. With no region-inclusion annotation
    // every record belongs to exactly one block, so whole batches ship
    // through the emitter's columnar path, values taken straight from the
    // contiguous row-major table slice.
    spec.value_width = table.row_width();
    spec.map_fn = [&](int64_t begin, int64_t end, Emitter* emitter) {
      ScanKeyLevels(
          schema, table, keygen, batch_rows, begin, end, *emitter,
          [&](const int64_t* const* levels, int64_t first_row, int64_t n,
              const RecordBatch&) {
            if (!any_annotated) {
              emitter->EmitBatch(levels, table.row(first_row), n);
              return;
            }
            ForEachRecordBlock(
                table, keygen, levels, first_row, n,
                [&](const int64_t* k, const int64_t* row) {
                  emitter->Emit(k, row);
                });
          });
    };
    if (plan.combined_sort) {
      const SortScanEvaluator* order = members[0].local_eval.get();
      spec.value_less = [order](const int64_t* a, const int64_t* b) {
        return order->RowLess(a, b);
      };
    }
  } else {
    // ---- Early aggregation (§III-D): mappers pre-aggregate the basic
    // measures per (block, measure, region) in a per-split adaptive
    // combiner (agg/combiner.h) and ship mergeable partial states instead
    // of raw records. The combiner takes records one at a time because its
    // bounded table, flush timing and bypass decision are order-sensitive.
    spec.value_width = 1 + num_attrs + Accumulator::kPartialSize;
    spec.map_fn = [&](int64_t begin, int64_t end, Emitter* emitter) {
      EarlyAggCombiner combiner(members[0].wf, options.local_agg, trace);
      const bool finished = ScanKeyLevels(
          schema, table, keygen, batch_rows, begin, end, *emitter,
          [&](const int64_t* const* levels, int64_t first_row, int64_t n,
              const RecordBatch&) {
            ForEachRecordBlock(
                table, keygen, levels, first_row, n,
                [&](const int64_t* k, const int64_t* row) {
                  combiner.AddRecord(k, row, emitter);
                });
          });
      if (finished) combiner.Flush(emitter);
    };
  }

  const LocalEvalPhase local_phase =
      options.phase == ParallelEvalPhase::kLocalSortOnly
          ? LocalEvalPhase::kSortOnly
          : LocalEvalPhase::kFull;
  spec.reduce_fn = [&](int reducer, const GroupView& group) {
    // Every member reads the block's one row buffer in shuffle order: the
    // local engines take it as const, so no member sees another's work and
    // each computes exactly what a solo run of it would.
    std::vector<int64_t>& rows = block_rows[static_cast<size_t>(reducer)];
    if (!plan.early_aggregation) group.CopyValuesInto(&rows);
    for (MemberRun& m : members) {
      LocalEvalStats stats;
      MeasureResultSet block_results;
      if (plan.early_aggregation) {
        if (options.phase == ParallelEvalPhase::kFull) {
          block_results = MergePartials(*m.wf, group, &stats);
        }
      } else {
        LocalAggContext ctx;
        ctx.rows = rows.data();
        ctx.n = group.size();
        ctx.assume_sorted = plan.combined_sort;
        ctx.phase = local_phase;
        ctx.cancel = group.cancellation_token();
        block_results = m.local_agg->Evaluate(ctx, &stats);
      }
      // A cancelled attempt's partial results must never reach the shard;
      // the surrounding run is failing with Cancelled/DeadlineExceeded.
      if (group.cancelled()) return;
      if (options.phase != ParallelEvalPhase::kFull) {
        m.shards->AddBlock(reducer, MeasureResultSet(m.wf->num_measures()),
                           stats, 0);
        continue;
      }
      const int64_t filtered =
          FilterOwned(*m.wf, keygen, group.key(), &block_results);
      m.shards->AddBlock(reducer, std::move(block_results), stats, filtered);
    }
  };
  spec.reduce_finish_fn = [&](int reducer) {
    std::vector<int64_t>().swap(block_rows[static_cast<size_t>(reducer)]);
    for (MemberRun& m : members) m.shards->Flush(reducer);
  };

  const bool tracing = trace->enabled();
  const double eval_start = tracing ? trace->NowSeconds() : 0;
  Result<MapReduceMetrics> run = engine.Run(spec, table.num_rows());
  if (tracing) {
    trace->RecordSpan("eval", "evaluate-parallel", eval_start,
                      trace->NowSeconds(), /*task=*/-1, /*attempt=*/0,
                      run.ok() ? TraceOutcome::kOk : TraceOutcome::kFailed,
                      "members=" + std::to_string(members.size()) +
                          " key=" + plan.key.ToString(schema));
  }
  if (!run.ok()) {
    // The engine message already names the failing phase and task id.
    return Status(run.status().code(),
                  "parallel evaluation failed: " + run.status().message());
  }
  SharedEvalResult out;
  out.metrics = std::move(run).value();
  out.queries.resize(members.size());
  for (size_t i = 0; i < members.size(); ++i) {
    ResultShards::Shard& total = members[i].shards->total();
    if (!total.first_error.ok()) return total.first_error;
    SharedQueryResult& q = out.queries[i];
    q.results = std::move(total.results);
    q.local_stats = total.local_stats;
    q.blocks_evaluated = total.blocks;
    q.results_filtered = total.filtered;
  }
  return out;
}

/// Plan checks every member of an evaluation must pass: a feasible key, a
/// clustering factor >= 1, and distributive/algebraic basic measures
/// under early aggregation.
Status CheckPlan(const Workflow& wf, const ExecutionPlan& plan) {
  CASM_RETURN_IF_ERROR(CheckFeasible(wf, plan.key));
  if (plan.clustering_factor < 1) {
    return Status::InvalidArgument("clustering factor must be >= 1");
  }
  if (plan.early_aggregation) {
    for (int i : wf.BasicMeasures()) {
      if (ClassOf(wf.measure(i).fn) == AggregateClass::kHolistic) {
        return Status::InvalidArgument(
            "early aggregation requires distributive/algebraic basic "
            "measures; '" +
            wf.measure(i).name + "' is holistic");
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<ParallelEvalResult> EvaluateParallel(
    const Workflow& wf, const Table& table, const ExecutionPlan& plan,
    const ParallelEvalOptions& options) {
  CASM_RETURN_IF_ERROR(CheckPlan(wf, plan));
  QueryRun run({&wf}, table, options);
  if (Status s = run.OpenCheckpoint(); !s.ok()) return run.Fail(s);

  // Checkpointed single-pass evaluation: the full result set is one log
  // entry keyed by the (workflow, table) fingerprint. The entry label is
  // plan-independent because every feasible plan computes identical
  // results, so a committed run short-circuits re-runs under any plan. A
  // failed restore (never committed, torn, stale) falls through to a
  // normal evaluation: corruption degrades to recompute.
  ParallelEvalResult out;
  if (Result<MeasureResultSet> restored = run.RestoreResultSet();
      restored.ok()) {
    out.results = std::move(restored).value();
    run.Finish(&out.metrics);
    return out;
  }
  Result<SharedEvalResult> pass = RunEvaluationPass(
      {&wf}, table, plan, run.JobOptions(), &out.input_locality);
  if (!pass.ok()) return run.Fail(pass.status());
  out.metrics = std::move(pass->metrics);
  SharedQueryResult& solo = pass->queries[0];
  out.results = std::move(solo.results);
  out.local_stats = solo.local_stats;
  out.blocks_evaluated = solo.blocks_evaluated;
  out.results_filtered = solo.results_filtered;
  run.CommitResultSet(out.results);
  run.Finish(&out.metrics);
  return out;
}

Result<SharedEvalResult> EvaluateParallelShared(
    const std::vector<SharedQuery>& queries, const Table& table,
    const ExecutionPlan& plan, const ParallelEvalOptions& options) {
  if (queries.empty()) {
    return Status::InvalidArgument("shared evaluation needs >= 1 query");
  }
  std::vector<const Workflow*> workflows;
  for (const SharedQuery& q : queries) {
    if (q.workflow == nullptr) {
      return Status::InvalidArgument("shared evaluation: null workflow");
    }
    if (q.workflow->schema() != queries[0].workflow->schema()) {
      return Status::InvalidArgument(
          "shared evaluation: members must share one schema instance");
    }
    workflows.push_back(q.workflow);
  }
  if (plan.early_aggregation) {
    return Status::InvalidArgument(
        "shared evaluation requires raw-record redistribution "
        "(plan.early_aggregation must be false)");
  }
  if (plan.combined_sort) {
    return Status::InvalidArgument(
        "shared evaluation cannot use a combined framework sort "
        "(the sort order is member-specific)");
  }
  if (options.phase != ParallelEvalPhase::kFull) {
    return Status::InvalidArgument("shared evaluation runs kFull only");
  }
  if (options.checkpoint.enabled()) {
    return Status::InvalidArgument(
        "shared evaluation does not checkpoint; evaluate solo instead");
  }
  for (const Workflow* wf : workflows) {
    CASM_RETURN_IF_ERROR(CheckPlan(*wf, plan));
  }

  QueryRun run(workflows, table, options);
  double input_locality = 1.0;
  Result<SharedEvalResult> pass = RunEvaluationPass(
      workflows, table, plan, run.JobOptions(), &input_locality);
  if (!pass.ok()) return run.Fail(pass.status());
  SharedEvalResult out = std::move(pass).value();
  std::vector<SharedQueryAttribution> attributions;
  for (size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].label.empty()) continue;
    const SharedQueryResult& q = out.queries[i];
    SharedQueryAttribution attr;
    attr.query = queries[i].label;
    attr.local_records = q.local_stats.records;
    attr.local_eval_seconds =
        q.local_stats.sort_seconds + q.local_stats.eval_seconds;
    attr.result_values = q.results.TotalResults();
    attr.results_filtered = q.results_filtered;
    attributions.push_back(std::move(attr));
  }
  // The shared job's scan/shuffle counters publish once under the batch
  // label; members get exactly their own reduce-side work.
  run.Finish(&out.metrics);
  PublishSharedQueryMetrics(MetricsRegistry::Global(), attributions,
                            static_cast<int>(queries.size()));
  return out;
}

}  // namespace casm
