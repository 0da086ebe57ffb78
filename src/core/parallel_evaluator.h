// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// The parallel evaluation algorithm of paper §III: redistribute records
// into (possibly overlapping, possibly clustered) blocks keyed by the
// plan's distribution key, evaluate the whole workflow locally inside
// every block with the sort/scan algorithm, filter each block's results to
// the regions it owns, and union the per-block results — which the
// feasibility of the key guarantees is exactly the query answer, with no
// duplicates and no cross-block combination step.

#ifndef CASM_CORE_PARALLEL_EVALUATOR_H_
#define CASM_CORE_PARALLEL_EVALUATOR_H_

#include <cstdint>

#include "agg/local_aggregator.h"
#include "ckpt/checkpoint.h"
#include "common/result.h"
#include "core/plan.h"
#include "data/table.h"
#include "dfs/dfs.h"
#include "local/measure_table.h"
#include "local/sortscan_evaluator.h"
#include "measure/workflow.h"
#include "mr/engine.h"
#include "mr/metrics.h"

namespace casm {

class FlightRecorder;
class ProgressTracker;
class TraceRecorder;

/// How much of the pipeline to run (the Fig 4(d) cost breakdown).
enum class ParallelEvalPhase {
  kMapOnly,       // fetch records + key generation only
  kShuffleOnly,   // + shuffle and framework sort (no reduce work)
  kLocalSortOnly, // + in-reducer local sort (no evaluation)
  kFull,          // the real evaluation
};

struct ParallelEvalOptions {
  int num_mappers = 4;
  int num_reducers = 4;
  /// Worker threads executing the (virtual) tasks; <= 0 picks hardware
  /// concurrency.
  int num_threads = 0;
  ParallelEvalPhase phase = ParallelEvalPhase::kFull;
  /// Per-reducer framework-sort memory budget in pairs; exceeding it
  /// spills sorted runs to disk (external sort). 0 = unlimited.
  int64_t reducer_memory_limit_pairs = 0;
  /// Process-wide byte budget for the evaluation, forwarded to the
  /// engine: emitter buffers are tracked against it and task launches
  /// reserve projected footprints first, queueing under pressure
  /// (speculation's doubled executions included). 0 = unlimited, with
  /// peak_tracked_bytes still measuring the run. See mr/engine.h.
  int64_t memory_budget_bytes = 0;
  /// Map-side spill threshold in bytes of buffered pairs per task; past
  /// it emitters spill sorted runs to disk, replayed at shuffle. 0 = no
  /// map-side spilling (a set memory budget derives a threshold).
  int64_t emitter_spill_threshold_bytes = 0;
  /// Optional block placement of the input table: mappers then read the
  /// locality-scheduled splits of this file instead of contiguous chunks.
  /// Must describe exactly `table.num_rows()` rows. Not owned.
  const DistributedFile* input_file = nullptr;
  /// Hadoop-style per-task retry budget forwarded to the engine (>= 1);
  /// exhausted retries surface as a non-OK Status naming phase and task.
  int max_task_attempts = 2;
  /// Fault plan (common/fault.h) forwarded to the engine and to the
  /// checkpoint volume: task crashes, slowdowns and record throttles,
  /// storage faults. null = the process-global CASM_FAULT_PLAN plan.
  /// Not owned.
  const FaultPlan* fault_plan = nullptr;
  /// Task retry backoff forwarded to the engine: first delay, doubling
  /// per retry up to the cap, with jitter. 0 = retry immediately.
  int64_t retry_backoff_initial_ms = 0;
  int64_t retry_backoff_max_ms = 1000;

  // ---- Straggler resilience, forwarded to the engine (see mr/engine.h
  // for the full semantics of each knob).

  /// Wall-clock budget for the evaluation; <= 0 = none. On expiry the
  /// evaluation fails with DeadlineExceeded instead of hanging. For
  /// EvaluateMultiJob this is the budget for the *whole* job sequence.
  double deadline_seconds = 0;
  /// Optional external cancellation token. Not owned.
  const CancellationToken* cancel = nullptr;
  /// Enables speculative backup executions for straggling tasks.
  bool speculative_execution = false;
  double speculation_latency_multiple = 4.0;
  double speculation_min_completed_fraction = 0.5;
  double speculation_min_runtime_seconds = 0.05;

  /// Trace recorder for the run's spans (obs/trace.h). Null uses the
  /// process-global recorder, which records only under CASM_TRACE; point
  /// it at a locally-enabled recorder to trace one evaluation (the
  /// straggler bench fits its slowdown parameter that way). Not owned.
  TraceRecorder* trace = nullptr;

  // ---- Live observability (obs/metrics.h, obs/progress.h,
  // obs/flight_recorder.h). With everything below defaulted and the
  // CASM_METRICS / CASM_PROGRESS / CASM_DIAG_DIR environment switches
  // unset, the whole stack costs one relaxed load per would-be event.

  /// Label identifying this query in per-query registry counters
  /// (casm_query_*), progress gauges and flight events. Empty derives
  /// "q<fingerprint>" from the (workflow, table) fingerprint — computed
  /// only when some observability consumer is actually active, since the
  /// fingerprint hashes the input table.
  std::string query_label;
  /// Directory receiving a JSON diagnostic bundle (flight-recorder ring +
  /// metrics snapshot + resolved options) when the evaluation returns a
  /// non-OK Status. Empty falls back to CASM_DIAG_DIR.
  std::string diag_dir;
  /// Flight recorder collecting the run's incident ring. Null uses
  /// FlightRecorder::Global(), enabled iff CASM_DIAG_DIR is set. Not
  /// owned.
  FlightRecorder* flight = nullptr;
  /// Progress tracker to drive. Null creates a run-local tracker when any
  /// observability consumer is active (registry enabled, ticker armed,
  /// diag dir set). Not owned; must outlive the call.
  ProgressTracker* progress = nullptr;
  /// Stderr progress-ticker period in seconds; 0 defers to CASM_PROGRESS
  /// (unset = no ticker).
  double progress_seconds = 0;

  /// Durable per-job checkpointing (src/ckpt): with a directory set and
  /// mode kResume, EvaluateMultiJob commits each completed job's results
  /// to the DFS volume and a re-run restores committed jobs instead of
  /// recomputing them; EvaluateParallel checkpoints the full result set
  /// (phase kFull only). Verification failures degrade to recompute.
  CheckpointOptions checkpoint;

  /// Local aggregation knobs (src/agg): whether reducer blocks may take
  /// the morsel path or are pinned to sort/scan, batching, and how the
  /// map-side combiner bounds and bypasses early aggregation.
  LocalAggOptions local_agg;
};

/// Copies the robustness knobs of `options` (retry budget, fault plan,
/// deadline, cancellation, speculation policy, memory budget and spill
/// thresholds) into `spec`. Shared by EvaluateParallel and the multi-job
/// evaluator so the two paths cannot drift.
void ApplyEngineOptions(const ParallelEvalOptions& options,
                        MapReduceSpec* spec);

struct ParallelEvalResult {
  MeasureResultSet results;       // empty unless phase == kFull
  MapReduceMetrics metrics;       // engine metrics (per-reducer workloads)
  /// Aggregated per-block evaluator work. `records` counts raw records
  /// scanned by the local sort/scan algorithm (raw-redistribution path);
  /// the early-aggregation path ships pre-aggregated states instead and
  /// reports them in `merged_partials`, leaving `records` untouched so
  /// the two paths' stats stay comparable.
  LocalEvalStats local_stats;
  int64_t blocks_evaluated = 0;
  int64_t results_filtered = 0;   // measure records dropped by ownership
  /// Fraction of input blocks read replica-locally (1.0 without a
  /// DistributedFile).
  double input_locality = 1.0;
};

/// Evaluates `wf` over `table` with `plan`. Fails with FailedPrecondition
/// if the plan's key is infeasible for the workflow, and with
/// InvalidArgument if early aggregation is requested while a basic measure
/// is holistic (paper §III-D requires distributive/algebraic partials).
Result<ParallelEvalResult> EvaluateParallel(const Workflow& wf,
                                            const Table& table,
                                            const ExecutionPlan& plan,
                                            const ParallelEvalOptions& options);

}  // namespace casm

#endif  // CASM_CORE_PARALLEL_EVALUATOR_H_
