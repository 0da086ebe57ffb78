// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// EvaluateParallel and EvaluateParallelShared are thin wrappers over one
// evaluation pass (RunEvaluationPass): a solo run is its one-member case
// and a shared batch its k-member case, so the two cannot diverge.

#include "core/parallel_evaluator.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "agg/combiner.h"
#include "agg/local_aggregator.h"
#include "common/logging.h"
#include "common/math.h"
#include "core/coverage.h"
#include "core/keygen.h"
#include "core/shared_evaluator.h"
#include "data/record_batch.h"
#include "local/derivation.h"
#include "mr/engine.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"

namespace casm {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// One reduce task's share of a member's results. Only the execution that
/// owns the task's output (the engine's ownership gate) ever writes it, so
/// its blocks merge in without a lock; it is flushed into the member once,
/// when the task ends.
struct ReducerShard {
  MeasureResultSet results;
  LocalEvalStats local_stats;
  Status first_error;
  int64_t blocks = 0;
  int64_t filtered = 0;
};

/// One member workflow of an evaluation pass: its local evaluation
/// machinery, its per-reducer shards, and the result assembly the shards
/// flush into.
struct MemberRun {
  const Workflow* wf = nullptr;
  std::unique_ptr<SortScanEvaluator> local_eval;
  std::unique_ptr<LocalAggregator> local_agg;
  std::vector<ReducerShard> shards;  // one per reducer, single writer each

  std::mutex mu;  // guards everything below across reduce-task flushes
  MeasureResultSet results;
  LocalEvalStats local_stats;
  Status first_error;
  int64_t blocks = 0;
  int64_t filtered = 0;

  /// Adds one block's owned results to reducer `reducer`'s shard; a
  /// region the shard already holds violates rule 2.
  void AddBlock(int reducer, MeasureResultSet&& kept,
                const LocalEvalStats& stats, int64_t filtered_here) {
    ReducerShard& shard = shards[static_cast<size_t>(reducer)];
    ++shard.blocks;
    shard.filtered += filtered_here;
    shard.local_stats.Accumulate(stats);
    if (shard.first_error.ok()) {
      shard.first_error = shard.results.MergeDisjoint(std::move(kept));
    }
  }

  /// Unions reducer `reducer`'s shard into the member's results: the one
  /// lock acquisition of the task.
  void Flush(int reducer) {
    ReducerShard& shard = shards[static_cast<size_t>(reducer)];
    {
      std::unique_lock<std::mutex> lock(mu);
      blocks += shard.blocks;
      filtered += shard.filtered;
      local_stats.Accumulate(shard.local_stats);
      Status s = shard.first_error;
      if (s.ok()) s = results.MergeDisjoint(std::move(shard.results));
      if (!s.ok() && first_error.ok()) first_error = s;
    }
    // The merge spliced the nodes out; free the emptied bucket arrays now
    // rather than when the pass ends.
    shard.results = MeasureResultSet();
  }
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

std::string DescribeOptions(const ParallelEvalOptions& options) {
  auto num = [](int64_t v) { return std::to_string(v); };
  const char* phase = "full";
  switch (options.phase) {
    case ParallelEvalPhase::kMapOnly: phase = "map-only"; break;
    case ParallelEvalPhase::kShuffleOnly: phase = "shuffle-only"; break;
    case ParallelEvalPhase::kLocalSortOnly: phase = "local-sort-only"; break;
    case ParallelEvalPhase::kFull: break;
  }
  std::string out = "{";
  out += "\"num_mappers\":" + num(options.num_mappers);
  out += ",\"num_reducers\":" + num(options.num_reducers);
  out += ",\"num_threads\":" + num(options.num_threads);
  out += ",\"phase\":\"" + std::string(phase) + "\"";
  out += ",\"memory_budget_bytes\":" + num(options.memory_budget_bytes);
  out += ",\"emitter_spill_threshold_bytes\":" +
         num(options.emitter_spill_threshold_bytes);
  out += ",\"reducer_memory_limit_pairs\":" +
         num(options.reducer_memory_limit_pairs);
  out += ",\"max_task_attempts\":" + num(options.max_task_attempts);
  out += ",\"retry_backoff_initial_ms\":" +
         num(options.retry_backoff_initial_ms);
  char deadline[32];
  std::snprintf(deadline, sizeof(deadline), "%.6g", options.deadline_seconds);
  out += ",\"deadline_seconds\":" + std::string(deadline);
  out += ",\"speculative_execution\":";
  out += options.speculative_execution ? "true" : "false";
  out += ",\"checkpoint\":";
  out += options.checkpoint.enabled() ? "true" : "false";
  out += "}";
  return out;
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
  for (int i = 0; i < wf.num_measures(); ++i) {
    if (group.cancelled()) return block_results;
    if (wf.measure(i).op != MeasureOp::kAggregateRecords) {
      DeriveCompositeMeasure(wf, i, &block_results);
    }
  }
  // These are shuffled partial-state pairs, not raw input records —
  // counting them as `records` would inflate the early-agg path's stats
  // relative to raw redistribution.
  stats->merged_partials += group.size();
  stats->eval_seconds += SecondsSince(eval_start);
  return block_results;
}

/// The map side's scan: reads rows [begin, end) as RecordBatches of
/// `batch_rows` (<= 0: CASM_BATCH_SIZE or the default), maps every key
/// attribute to its key level with one vectorized pass per column, and
/// calls `on_batch(levels, first_row, n)` where `levels[a][i]` is row
/// `first_row + i`'s attribute-a key-level coordinate. Returns false when
/// the attempt was cancelled (deadline, lost speculation race); the engine
/// discards a cancelled attempt's output, so stopping mid-split is safe.
template <typename OnBatch>
bool ScanKeyLevels(const Schema& schema, const Table& table,
                   const std::vector<KeyGenAttr>& keygen, int64_t batch_rows,
                   int64_t begin, int64_t end, const Emitter& emitter,
                   OnBatch&& on_batch) {
  const int num_attrs = schema.num_attributes();
  TableScan scan = table.Scan(batch_rows, begin, end);
  RecordBatch batch(table.row_width(), scan.batch_rows());
  std::vector<std::vector<int64_t>> cols(
      static_cast<size_t>(num_attrs),
      std::vector<int64_t>(static_cast<size_t>(scan.batch_rows())));
  std::vector<const int64_t*> levels(static_cast<size_t>(num_attrs));
  for (int a = 0; a < num_attrs; ++a) {
    levels[static_cast<size_t>(a)] = cols[static_cast<size_t>(a)].data();
  }
  while (scan.Next(&batch)) {
    if (emitter.cancelled()) return false;
    const int64_t n = batch.num_rows();
    for (int a = 0; a < num_attrs; ++a) {
      schema.attribute(a).MapFromFinestColumn(
          batch.column(a), n, keygen[static_cast<size_t>(a)].level,
          cols[static_cast<size_t>(a)].data());
    }
    on_batch(levels.data(), scan.position(), n);
  }
  return true;
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
/// sort order are per workflow. Callers validate the plan; `progress` and
/// `query_label` are their resolved observability settings. Engine
/// failures come back as "parallel evaluation failed: <engine message>".
Result<SharedEvalResult> RunEvaluationPass(
    const std::vector<const Workflow*>& workflows, const Table& table,
    const ExecutionPlan& plan, const ParallelEvalOptions& options,
    ProgressTracker* progress, const std::string& query_label,
    double* input_locality) {
  CASM_CHECK(!workflows.empty());
  CASM_CHECK(workflows.size() == 1 ||
             (!plan.early_aggregation && !plan.combined_sort));
  const Schema& schema = *workflows[0]->schema();
  const int num_attrs = schema.num_attributes();
  const std::vector<KeyGenAttr> keygen = BuildKeyGen(schema, plan);
  TraceRecorder* const trace =
      options.trace != nullptr ? options.trace : TraceRecorder::Global();

  // Group-by engine for per-block local evaluation (src/agg): adaptive by
  // default, it dispatches each reducer block to sort/scan, morsel or
  // radix aggregation. It shares its member's sort/scan plan, so RowLess
  // (combined sort) and the engines can never disagree on order.
  const size_t num_reducers =
      static_cast<size_t>(std::max(0, options.num_reducers));
  std::vector<MemberRun> members(workflows.size());
  for (size_t i = 0; i < members.size(); ++i) {
    MemberRun& m = members[i];
    m.wf = workflows[i];
    m.local_eval = std::make_unique<SortScanEvaluator>(m.wf);
    m.local_agg =
        MakeLocalAggregator(m.wf, m.local_eval.get(), options.local_agg);
    m.results = MeasureResultSet(m.wf->num_measures());
    m.shards.resize(num_reducers);
    for (ReducerShard& shard : m.shards) {
      shard.results = MeasureResultSet(m.wf->num_measures());
    }
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
  // The caller's resolutions override what ApplyEngineOptions copied.
  spec.progress = progress;
  spec.query_label = query_label;

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
          [&](const int64_t* const* levels, int64_t first_row, int64_t n) {
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
          [&](const int64_t* const* levels, int64_t first_row, int64_t n) {
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
        ctx.trace = trace;
        ctx.task = reducer;
        ctx.expected_groups_hint = plan.predicted_block_groups;
        block_results = m.local_agg->Evaluate(ctx, &stats);
      }
      // A cancelled attempt's partial results must never reach the shard;
      // the surrounding run is failing with Cancelled/DeadlineExceeded.
      if (group.cancelled()) return;
      if (options.phase != ParallelEvalPhase::kFull) {
        m.AddBlock(reducer, MeasureResultSet(m.wf->num_measures()), stats, 0);
        continue;
      }
      const int64_t filtered =
          FilterOwned(*m.wf, keygen, group.key(), &block_results);
      m.AddBlock(reducer, std::move(block_results), stats, filtered);
    }
  };
  spec.reduce_finish_fn = [&](int reducer) {
    std::vector<int64_t>().swap(block_rows[static_cast<size_t>(reducer)]);
    for (MemberRun& m : members) m.Flush(reducer);
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
    MemberRun& m = members[i];
    if (!m.first_error.ok()) return m.first_error;
    SharedQueryResult& q = out.queries[i];
    q.results = std::move(m.results);
    q.local_stats = m.local_stats;
    q.blocks_evaluated = m.blocks;
    q.results_filtered = m.filtered;
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

/// The query label observability consumers stamp on their output: the
/// caller's label, or "q<fingerprint>" derived on demand. Computed only
/// when some consumer is active — the fingerprint hashes the whole input
/// table, and the disabled path must stay at relaxed-load cost.
std::string ResolveQueryLabel(const ParallelEvalOptions& options,
                              const Workflow& wf, const Table& table,
                              bool observing) {
  if (!options.query_label.empty()) return options.query_label;
  if (!observing) return std::string();
  char buf[24];
  std::snprintf(buf, sizeof(buf), "q%016llx",
                static_cast<unsigned long long>(FingerprintQuery(wf, table)));
  return buf;
}

}  // namespace

Result<ParallelEvalResult> EvaluateParallel(
    const Workflow& wf, const Table& table, const ExecutionPlan& plan,
    const ParallelEvalOptions& options) {
  CASM_RETURN_IF_ERROR(CheckPlan(wf, plan));

  // ---- Live observability resolution (see ParallelEvalOptions): the
  // flight recorder, the diagnostic-bundle directory, the progress
  // tracker, and the query label they all stamp. Everything here is
  // inert — and the label never computed — unless some consumer is on.
  FlightRecorder* const flight =
      options.flight != nullptr ? options.flight : FlightRecorder::Global();
  const std::string diag_dir = !options.diag_dir.empty()
                                   ? options.diag_dir
                                   : FlightRecorder::GlobalDiagDir();
  const double ticker_seconds = options.progress_seconds > 0
                                    ? options.progress_seconds
                                    : ProgressTracker::TickerSecondsFromEnv();
  const bool observing = MetricsRegistry::Global()->enabled() ||
                         flight->enabled() || !diag_dir.empty() ||
                         ticker_seconds > 0 || options.progress != nullptr ||
                         !options.query_label.empty();
  const std::string query_label =
      ResolveQueryLabel(options, wf, table, observing);
  std::optional<ProgressTracker> local_progress;
  ProgressTracker* progress = options.progress;
  if (progress == nullptr && observing) {
    local_progress.emplace(query_label);
    progress = &*local_progress;
  }
  if (ticker_seconds > 0) progress->StartTicker(ticker_seconds);
  // Bundle-on-failure helper shared by every non-OK exit below: dumps the
  // flight ring, a metrics snapshot and the resolved options to diag_dir
  // (no-op when no directory is configured).
  const auto diagnose = [&](const Status& failure) {
    MaybeWriteDiagnosticBundle(diag_dir, query_label, failure,
                               DescribeOptions(options), *flight);
  };

  // Checkpointed single-pass evaluation: the full result set is one log
  // entry keyed by the (workflow, table) fingerprint. The entry label is
  // plan-independent because every feasible plan computes identical
  // results, so a committed run short-circuits re-runs under any plan.
  std::optional<CheckpointLog> ckpt;
  TraceRecorder* const ckpt_trace =
      options.trace != nullptr ? options.trace : TraceRecorder::Global();
  DfsVolumeStats dfs_base;
  // Attributes the checkpoint volume's resilience activity (IO retries,
  // failovers, repairs) since Open to this run's metrics.
  const auto apply_dfs_stats = [&ckpt, &dfs_base](MapReduceMetrics* m) {
    if (!ckpt.has_value()) return;
    const DfsVolumeStats s = ckpt->volume().stats();
    m->dfs_io_retries += s.io_retries - dfs_base.io_retries;
    m->dfs_write_failovers += s.write_failovers - dfs_base.write_failovers;
    m->dfs_corrupt_replicas += s.corrupt_replicas - dfs_base.corrupt_replicas;
    m->dfs_repaired_replicas +=
        s.repaired_replicas - dfs_base.repaired_replicas;
    m->dfs_under_replicated_blocks +=
        s.under_replicated_blocks - dfs_base.under_replicated_blocks;
  };
  int64_t ckpt_restore_failures = 0;
  if (options.checkpoint.enabled() &&
      options.phase == ParallelEvalPhase::kFull) {
    CheckpointOptions ckpt_options = options.checkpoint;
    if (ckpt_options.volume.fault_plan == nullptr) {
      ckpt_options.volume.fault_plan = options.fault_plan;
    }
    if (ckpt_options.volume.trace == nullptr) {
      ckpt_options.volume.trace = options.trace;
    }
    CASM_ASSIGN_OR_RETURN(
        CheckpointLog log,
        CheckpointLog::Open(ckpt_options, FingerprintQuery(wf, table)));
    ckpt.emplace(std::move(log));
    dfs_base = ckpt->volume().stats();
    const bool tracing = ckpt_trace->enabled();
    const double restore_start = tracing ? ckpt_trace->NowSeconds() : 0;
    int64_t bytes_restored = 0;
    Result<MeasureResultSet> restored =
        ckpt->TryRestoreResultSet("result", &bytes_restored);
    if (tracing) {
      ckpt_trace->RecordSpan(
          "ckpt", "ckpt-restore result", restore_start,
          ckpt_trace->NowSeconds(), /*task=*/-1, /*attempt=*/0,
          restored.ok() ? TraceOutcome::kOk : TraceOutcome::kFailed,
          restored.ok() ? "bytes=" + std::to_string(bytes_restored)
                        : restored.status().ToString());
    }
    if (restored.ok() &&
        restored.value().num_measures() == wf.num_measures()) {
      // A failed restore (never committed, torn, stale) falls through
      // to a normal evaluation — corruption degrades to recompute.
      ParallelEvalResult out;
      out.results = std::move(restored).value();
      out.metrics.checkpoint_jobs_restored = 1;
      out.metrics.checkpoint_bytes_restored = bytes_restored;
      apply_dfs_stats(&out.metrics);
      PublishQueryMetrics(MetricsRegistry::Global(), query_label,
                          out.metrics);
      return out;
    }
    if (!restored.ok() &&
        restored.status().code() != StatusCode::kNotFound) {
      // Corrupt/torn/stale entry: recompute, but leave a trace of why.
      ckpt_restore_failures = 1;
    }
  }

  ParallelEvalResult out;
  Result<SharedEvalResult> run = RunEvaluationPass(
      {&wf}, table, plan, options, progress, query_label, &out.input_locality);
  if (!run.ok()) {
    diagnose(run.status());
    return run.status();
  }
  out.metrics = std::move(run->metrics);
  SharedQueryResult& solo = run->queries[0];
  out.results = std::move(solo.results);
  out.local_stats = solo.local_stats;
  out.blocks_evaluated = solo.blocks_evaluated;
  out.results_filtered = solo.results_filtered;
  if (ckpt.has_value()) {
    const bool ckpt_tracing = ckpt_trace->enabled();
    const double write_start = ckpt_tracing ? ckpt_trace->NowSeconds() : 0;
    Result<int64_t> bytes = ckpt->CommitResultSet("result", out.results);
    if (ckpt_tracing) {
      ckpt_trace->RecordSpan(
          "ckpt", "ckpt-write result", write_start, ckpt_trace->NowSeconds(),
          /*task=*/-1, /*attempt=*/0,
          bytes.ok() ? TraceOutcome::kOk : TraceOutcome::kFailed,
          bytes.ok() ? "bytes=" + std::to_string(bytes.value())
                     : bytes.status().ToString());
    }
    if (bytes.ok()) {
      out.metrics.checkpoint_bytes_written = bytes.value();
    } else {
      // Graceful degradation (DESIGN.md §12): a failing checkpoint store
      // loses durability, never the completed evaluation.
      out.metrics.checkpoint_commit_failures = 1;
      out.metrics.checkpoint_degraded = true;
      if (ckpt_tracing) {
        ckpt_trace->RecordInstant("ckpt", "ckpt-degraded", /*task=*/-1,
                                  bytes.status().ToString());
      }
    }
  }
  out.metrics.checkpoint_restore_failures = ckpt_restore_failures;
  apply_dfs_stats(&out.metrics);
  PublishQueryMetrics(MetricsRegistry::Global(), query_label, out.metrics);
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

  double input_locality = 1.0;
  CASM_ASSIGN_OR_RETURN(
      SharedEvalResult out,
      RunEvaluationPass(workflows, table, plan, options, options.progress,
                        options.query_label, &input_locality));
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
  if (!options.query_label.empty()) {
    PublishQueryMetrics(MetricsRegistry::Global(), options.query_label,
                        out.metrics);
  }
  PublishSharedQueryMetrics(MetricsRegistry::Global(), attributions,
                            static_cast<int>(queries.size()));
  return out;
}

}  // namespace casm
