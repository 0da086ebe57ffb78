// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// The shell every evaluator entry point (EvaluateParallel,
// EvaluateParallelShared, EvaluateMultiJob) runs its MapReduce jobs in.
// How a query is observed, made durable, degraded and published is
// decided here once, so the paper's one redistribution job (§III) and the
// per-measure baseline (§I) differ only in the jobs they run. Also here:
// the per-reducer result shards every job assembles its answer in.

#ifndef CASM_CORE_QUERY_RUN_H_
#define CASM_CORE_QUERY_RUN_H_

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "ckpt/checkpoint.h"
#include "common/result.h"
#include "core/parallel_evaluator.h"
#include "data/table.h"
#include "local/measure_table.h"
#include "local/sortscan_evaluator.h"
#include "measure/workflow.h"
#include "mr/metrics.h"
#include "obs/progress.h"

namespace casm {

class FlightRecorder;
class TraceRecorder;

class QueryRun {
 public:
  /// Resolves the flight recorder, diag dir, progress tracker and label of
  /// a run of `workflows` (one, or a shared batch's members) over `table`
  /// (see ParallelEvalOptions). The label is the caller's or, while some
  /// observability consumer is on, "q<fingerprint>"; the fingerprint
  /// hashes the whole table, so it is computed only then or for a
  /// checkpoint, and at most once. The workflows, `table` and `options`
  /// must outlive the run.
  QueryRun(const std::vector<const Workflow*>& workflows, const Table& table,
           const ParallelEvalOptions& options);

  QueryRun(const QueryRun&) = delete;
  QueryRun& operator=(const QueryRun&) = delete;

  /// The caller's options with the resolved label, progress tracker,
  /// flight and trace recorders stamped in: what each of the run's jobs
  /// runs under.
  ParallelEvalOptions JobOptions() const;

  /// Opens the checkpoint log when options.checkpoint is enabled and the
  /// phase is kFull; its volume inherits the run's fault plan and trace
  /// recorder unless the checkpoint options set their own.
  Status OpenCheckpoint();

  /// Restores job `job`'s (multi-job) or the whole result set's
  /// (single-pass) committed entry; NotFound without an open checkpoint.
  /// A failure means recompute; one other than NotFound (torn, corrupt,
  /// stale entry) counts as a restore failure.
  Result<MeasureValueMap> RestoreJob(int job, const std::string& name);
  Result<MeasureResultSet> RestoreResultSet();

  /// Commits an entry through the checkpoint breaker (DESIGN.md §12); a
  /// no-op without an open checkpoint. A failed or skipped commit degrades
  /// the run: it loses durability, never its results.
  void CommitJob(int job, const std::string& name,
                 const MeasureValueMap& values);
  void CommitResultSet(const MeasureResultSet& results);

  /// Writes the diagnostic bundle for `failure` (none without a diag
  /// directory) and returns `failure`.
  Status Fail(Status failure) const;

  /// Adds the checkpoint counters, breaker state and the checkpoint
  /// volume's DFS activity since OpenCheckpoint to `metrics`, then
  /// publishes `metrics` under the label.
  void Finish(MapReduceMetrics* metrics);

 private:
  template <typename T, typename RestoreFn>
  Result<T> Restore(int job, const std::string& name, RestoreFn&& restore);
  template <typename CommitFn>
  void Commit(int job, const std::string& name, CommitFn&& commit);
  uint64_t Fingerprint();

  const std::vector<const Workflow*> workflows_;
  const Table& table_;
  const ParallelEvalOptions& options_;
  std::optional<uint64_t> fingerprint_;

  FlightRecorder* flight_ = nullptr;
  TraceRecorder* trace_ = nullptr;
  std::string diag_dir_;
  std::string label_;
  std::optional<ProgressTracker> local_progress_;
  ProgressTracker* progress_ = nullptr;

  std::optional<CheckpointLog> ckpt_;
  DfsVolumeStats dfs_base_;
  CheckpointBreaker breaker_;
  int64_t jobs_restored_ = 0;
  int64_t bytes_restored_ = 0;
  int64_t restore_failures_ = 0;
  int64_t bytes_written_ = 0;
};

/// Per-reducer result shards of one job. Only the execution that owns a
/// reduce task's output (the engine's ownership gate) writes its shard, so
/// shards fill without a lock; Flush() unions a shard into the totals
/// once, when the task ends, under the one mutex. A region produced twice
/// fails the job with FailedPrecondition (distribution rule 2).
class ResultShards {
 public:
  /// One reducer's share of the job, or (total()) the whole job's.
  struct Shard {
    MeasureResultSet results;
    LocalEvalStats local_stats = {};
    Status first_error = {};  // the first rule-2 violation
    int64_t blocks = 0;
    int64_t filtered = 0;  // values dropped by the ownership filter
  };

  ResultShards(int num_measures, int num_reducers);

  /// Adds one block's owned results, and the local-evaluation work and
  /// ownership-filter drops behind them, to reducer `reducer`'s shard.
  void AddBlock(int reducer, MeasureResultSet&& results,
                const LocalEvalStats& stats, int64_t filtered);
  /// Unions `values` of measure `measure` into reducer `reducer`'s shard.
  void Add(int reducer, int measure, MeasureValueMap&& values);

  /// The reduce_finish_fn: unions reducer `reducer`'s shard into the
  /// totals and frees the shard's emptied bucket arrays.
  void Flush(int reducer);

  /// The flushed totals; read after the engine run.
  Shard& total() { return total_; }

 private:
  static void Keep(Status s, Shard* shard);
  /// Adds `from`'s counts and, while `into` holds no error, its results.
  static void Merge(Shard&& from, Shard* into);

  int num_measures_;
  std::vector<Shard> shards_;  // one per reducer, single writer each
  std::mutex mu_;              // guards total_ across flushes
  Shard total_;
};

}  // namespace casm

#endif  // CASM_CORE_QUERY_RUN_H_
