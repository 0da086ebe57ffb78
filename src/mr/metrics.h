// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Execution metrics for one MapReduce run. The paper's experiments reduce
// to per-phase work and the per-reducer workload distribution; every
// benchmark and the skew handler read these counters.
//
// Timing semantics — the engine reports both wall-clock and cpu-sum
// variants because virtual tasks outnumber worker threads:
//
//   * wall-clock (`map_seconds`, `reduce_phase_wall_seconds`,
//     `total_seconds`): elapsed time of the phase in this process;
//   * cpu-sum (`map_cpu_seconds`, `shuffle_sort_seconds`,
//     `reduce_seconds`): summed across (virtual) tasks, i.e. the serial
//     work a cluster would distribute; can exceed wall time whenever
//     tasks run in parallel. `map_cpu_seconds` counts every execution
//     (retried attempts and speculative losers included — it measures
//     work done); the per-reducer sort/reduce cpu-sums count only each
//     task's winning execution (they calibrate the cluster model's
//     per-record constants, which want the useful work).
//
// The `bench/fig4*` harnesses print the wall-clock `total_seconds` for
// reference and compute modeled cluster response times from
// `reducer_pairs` (see mr/cluster_model.h); none of them consume the
// cpu-sum fields directly — those calibrate the cluster model's
// per-record constants and feed the Fig 4(d)-style phase breakdowns.

#ifndef CASM_MR_METRICS_H_
#define CASM_MR_METRICS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/math.h"

namespace casm {

struct MapReduceMetrics {
  int64_t input_rows = 0;
  /// Key/value pairs emitted by mappers (>= input_rows under overlapping
  /// redistribution).
  int64_t emitted_pairs = 0;
  /// Pairs received per reducer (the workload distribution).
  std::vector<int64_t> reducer_pairs;
  /// Distinct key groups per reducer.
  std::vector<int64_t> reducer_groups;

  // Memory accounting and admission control (common/memory_budget.h).
  /// High-water mark of bytes tracked against the run's memory budget
  /// (emitter buffers + task footprint reservations). With
  /// `memory_budget_bytes` set this never exceeds the budget; with no
  /// budget it measures the unbounded run's peak.
  int64_t peak_tracked_bytes = 0;
  /// Map-side spill activity: runs the emitters wrote to disk past
  /// `emitter_spill_threshold_bytes`, the pairs they contained (replayed
  /// at shuffle; 0 when spilling is off), and the bytes those pairs
  /// occupied on disk (records x pair width x 8).
  int64_t emitter_spilled_runs = 0;
  int64_t emitter_spilled_records = 0;
  int64_t emitter_spilled_bytes = 0;
  /// Task launches that had to queue for budget admission, and the total
  /// time they spent waiting. Speculation's doubled executions queue here
  /// instead of overcommitting memory.
  int64_t admission_waits = 0;
  double admission_wait_seconds = 0;

  // Checkpoint & recovery (src/ckpt). Restored jobs run no tasks, so
  // they contribute nothing to the attempt digests or phase timings —
  // these counters are the only trace they leave in the metrics.
  /// Jobs whose results were restored from the checkpoint log instead of
  /// recomputed.
  int64_t checkpoint_jobs_restored = 0;
  /// Serialized payload bytes committed to / restored from the log.
  int64_t checkpoint_bytes_written = 0;
  int64_t checkpoint_bytes_restored = 0;
  /// Commit attempts that failed (the run continued without durability
  /// for those jobs) and commits skipped because the checkpoint circuit
  /// breaker was open.
  int64_t checkpoint_commit_failures = 0;
  int64_t checkpoint_commits_skipped = 0;
  /// Restore attempts that failed verification (corrupt block, torn
  /// manifest, fingerprint mismatch) and degraded to recompute. NotFound
  /// (never committed) is not counted.
  int64_t checkpoint_restore_failures = 0;
  /// True when any checkpoint commit failed or was skipped: the query
  /// completed, but some results are not durable.
  bool checkpoint_degraded = false;

  // DFS storage health (dfs/volume.h stats deltas attributed to this
  // run by the evaluators).
  int64_t dfs_io_retries = 0;
  int64_t dfs_write_failovers = 0;
  int64_t dfs_corrupt_replicas = 0;
  int64_t dfs_repaired_replicas = 0;
  int64_t dfs_under_replicated_blocks = 0;

  /// Task attempts that failed (injected faults, non-OK statuses, or
  /// exceptions thrown by user map/reduce functions). Cancelled attempts
  /// (speculation losers, deadline aborts) are not failures and are
  /// counted separately below.
  int64_t task_failures = 0;
  /// Attempts re-run after a failure; a run that succeeds with retries
  /// produces results identical to a fault-free run.
  int64_t task_retries = 0;

  // Straggler resilience (speculative execution + deadlines).
  /// Backup attempts launched for straggling tasks.
  int64_t speculative_attempts = 0;
  /// Backup attempts that finished before (and so replaced) the primary.
  int64_t speculative_wins = 0;
  /// Attempts that were cancelled mid-flight, or finished after another
  /// attempt of the same task had already won the race. Their output is
  /// always discarded.
  int64_t cancelled_attempts = 0;
  /// True when the job's wall-clock deadline tripped during the run.
  /// (A run that fails with DeadlineExceeded returns no metrics; this
  /// flag covers the rare race where every task finished anyway.)
  bool deadline_exceeded = false;
  /// Median / max duration of task attempts that ran to natural
  /// completion (successes and non-cancelled failures; mid-flight-
  /// cancelled attempts are excluded because their durations measure the
  /// cancellation latency, not the work). Under Accumulate() these are
  /// recomputed from the merged digests below, so a multi-job sequence
  /// reports true sequence-wide quantiles (not the old max-over-jobs
  /// approximation).
  double map_attempt_p50_seconds = 0;
  double map_attempt_max_seconds = 0;
  double reduce_attempt_p50_seconds = 0;
  double reduce_attempt_max_seconds = 0;
  /// The full attempt-duration distributions behind the scalars above
  /// (same population). Merged under Accumulate(); ToString() renders
  /// them as per-phase p50/p90/p99/max histogram lines.
  QuantileSketch map_attempt_digest;
  QuantileSketch reduce_attempt_digest;

  /// Human-readable per-run timeline summary (obs/run_report.h), filled
  /// by the engine when run tracing is enabled and appended by
  /// ToString(). Accumulate() keeps the first non-empty summary (the
  /// digests above are what merge across jobs).
  std::string run_report_summary;

  // Phase timings (see the header comment for wall vs cpu-sum semantics).
  double map_seconds = 0;      // wall clock of the map phase
  double map_cpu_seconds = 0;  // summed across mapper task attempts
  double shuffle_sort_seconds = 0;  // cpu-sum: grouping pairs per reducer
  double reduce_seconds = 0;        // cpu-sum: user reduce fn per reducer
  double reduce_phase_wall_seconds = 0;  // wall clock of shuffle+sort+reduce
  double total_seconds = 0;              // wall clock of the whole run

  int64_t MaxReducerPairs() const;
  int64_t TotalGroups() const;
  /// emitted / input: the data-duplication factor of the distribution.
  double ReplicationFactor() const;

  std::string ToString() const;

  /// Accumulates another run's metrics (used by multi-job evaluations).
  void Accumulate(const MapReduceMetrics& other);
};

class MetricsRegistry;

/// Publishes every counter of a completed run's `metrics` into `registry`
/// under {query=`query`} labels (`casm_query_*` families), making the
/// run's resource footprint scrapeable per concurrent query. Counters are
/// *added*, so a fresh query label reads back exactly equal to the
/// MapReduceMetrics fields; re-running under the same label accumulates,
/// like any Prometheus counter. No-op while the registry is disabled.
void PublishQueryMetrics(MetricsRegistry* registry, const std::string& query,
                         const MapReduceMetrics& metrics);

/// Exact per-query attribution inside a shared multi-query job
/// (core/shared_evaluator.h). The shared scan/shuffle counters belong to
/// the batch and are published once under the batch's own label via
/// PublishQueryMetrics; each member query publishes only work that is
/// genuinely its own — the records its local evaluation scanned, the
/// seconds it spent, the result values it produced, the records its
/// ownership filter dropped — so summing `casm_query_*` families across
/// concurrent queries never double-counts the shared pass.
struct SharedQueryAttribution {
  std::string query;           // casm_query_* label
  int64_t local_records = 0;   // rows this member's local evaluation scanned
  double local_eval_seconds = 0;  // sort + evaluate seconds, this member
  int64_t result_values = 0;   // measure values delivered to this member
  int64_t results_filtered = 0;  // values dropped by its ownership filter
};

/// Publishes each member's exact share of a shared job
/// (casm_query_shared_* families) plus the batch size it rode in.
/// No-op while the registry is disabled.
void PublishSharedQueryMetrics(
    MetricsRegistry* registry,
    const std::vector<SharedQueryAttribution>& queries, int batch_queries);

}  // namespace casm

#endif  // CASM_MR_METRICS_H_
