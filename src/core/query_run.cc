// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "core/query_run.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace casm {
namespace {

/// Renders the resolved options as a one-line JSON object: the "options"
/// section of a diagnostic bundle (obs/flight_recorder.h).
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

}  // namespace

QueryRun::QueryRun(const std::vector<const Workflow*>& workflows,
                   const Table& table, const ParallelEvalOptions& options)
    : workflows_(workflows),
      table_(table),
      options_(options),
      flight_(options.flight != nullptr ? options.flight
                                        : FlightRecorder::Global()),
      trace_(options.trace != nullptr ? options.trace
                                      : TraceRecorder::Global()),
      diag_dir_(!options.diag_dir.empty() ? options.diag_dir
                                          : FlightRecorder::GlobalDiagDir()),
      breaker_(options.checkpoint.breaker_failure_threshold,
               options.checkpoint.breaker_probe_seconds) {
  // Everything here is inert, and the label never computed, unless some
  // consumer is on: the disabled path must stay at relaxed-load cost.
  const double ticker_seconds = options.progress_seconds > 0
                                    ? options.progress_seconds
                                    : ProgressTracker::TickerSecondsFromEnv();
  const bool observing = MetricsRegistry::Global()->enabled() ||
                         flight_->enabled() || !diag_dir_.empty() ||
                         ticker_seconds > 0 || options.progress != nullptr ||
                         !options.query_label.empty();
  label_ = options.query_label;
  if (observing && label_.empty()) {
    char buf[24];
    std::snprintf(buf, sizeof(buf), "q%016llx",
                  static_cast<unsigned long long>(Fingerprint()));
    label_ = buf;
  }
  // One tracker spans the whole run; each job's phases re-begin under it.
  progress_ = options.progress;
  if (progress_ == nullptr && observing) {
    local_progress_.emplace(label_);
    progress_ = &*local_progress_;
  }
  if (ticker_seconds > 0) progress_->StartTicker(ticker_seconds);
}

uint64_t QueryRun::Fingerprint() {
  if (!fingerprint_.has_value()) {
    uint64_t fp = FingerprintQuery(*workflows_[0], table_);
    for (size_t i = 1; i < workflows_.size(); ++i) {
      fp = (fp ^ FingerprintWorkflow(*workflows_[i])) * 0x100000001b3ull;
    }
    fingerprint_ = fp;
  }
  return *fingerprint_;
}

ParallelEvalOptions QueryRun::JobOptions() const {
  ParallelEvalOptions job = options_;
  job.query_label = label_;
  job.progress = progress_;
  job.flight = flight_;
  job.trace = trace_;
  return job;
}

Status QueryRun::OpenCheckpoint() {
  if (!options_.checkpoint.enabled() ||
      options_.phase != ParallelEvalPhase::kFull) {
    return Status::OK();
  }
  CheckpointOptions ckpt_options = options_.checkpoint;
  if (ckpt_options.volume.fault_plan == nullptr) {
    ckpt_options.volume.fault_plan = options_.fault_plan;
  }
  if (ckpt_options.volume.trace == nullptr) {
    ckpt_options.volume.trace = options_.trace;
  }
  CASM_ASSIGN_OR_RETURN(CheckpointLog log,
                        CheckpointLog::Open(ckpt_options, Fingerprint()));
  ckpt_.emplace(std::move(log));
  dfs_base_ = ckpt_->volume().stats();
  return Status::OK();
}

template <typename T, typename RestoreFn>
Result<T> QueryRun::Restore(int job, const std::string& name,
                            RestoreFn&& restore) {
  if (!ckpt_.has_value()) return Status::NotFound("no checkpoint");
  const bool tracing = trace_->enabled();
  const double start = tracing ? trace_->NowSeconds() : 0;
  int64_t bytes = 0;
  Result<T> restored = restore(&bytes);
  if (tracing) {
    trace_->RecordSpan("ckpt", "ckpt-restore " + name, start,
                       trace_->NowSeconds(), /*task=*/-1, /*attempt=*/0,
                       restored.ok() ? TraceOutcome::kOk
                                     : TraceOutcome::kFailed,
                       restored.ok() ? "bytes=" + std::to_string(bytes)
                                     : restored.status().ToString(),
                       job);
  }
  if (restored.ok()) {
    ++jobs_restored_;
    bytes_restored_ += bytes;
  } else if (restored.status().code() != StatusCode::kNotFound) {
    ++restore_failures_;
  }
  return restored;
}

Result<MeasureValueMap> QueryRun::RestoreJob(int job,
                                             const std::string& name) {
  return Restore<MeasureValueMap>(job, name, [&](int64_t* bytes) {
    return ckpt_->TryRestoreJob(job, name, bytes);
  });
}

Result<MeasureResultSet> QueryRun::RestoreResultSet() {
  return Restore<MeasureResultSet>(
      /*job=*/-1, "result", [&](int64_t* bytes) -> Result<MeasureResultSet> {
        Result<MeasureResultSet> restored =
            ckpt_->TryRestoreResultSet("result", bytes);
        if (restored.ok() &&
            restored->num_measures() != workflows_[0]->num_measures()) {
          return Status::FailedPrecondition(
              "checkpointed result set does not match the query's measures");
        }
        return restored;
      });
}

template <typename CommitFn>
void QueryRun::Commit(int job, const std::string& name, CommitFn&& commit) {
  if (!ckpt_.has_value()) return;
  const bool tracing = trace_->enabled();
  if (!breaker_.ShouldAttempt()) {
    if (tracing) {
      trace_->RecordInstant("ckpt", "ckpt-skipped " + name, /*task=*/-1,
                            "breaker open");
    }
    if (flight_->enabled()) {
      flight_->Record("ckpt", "ckpt-skipped", /*task=*/job, /*attempt=*/0,
                      "breaker open: commit of '" + name + "' skipped",
                      label_);
    }
    return;
  }
  const double start = tracing ? trace_->NowSeconds() : 0;
  Result<int64_t> bytes = commit();
  if (tracing) {
    trace_->RecordSpan("ckpt", "ckpt-write " + name, start,
                       trace_->NowSeconds(), /*task=*/-1, /*attempt=*/0,
                       bytes.ok() ? TraceOutcome::kOk : TraceOutcome::kFailed,
                       bytes.ok() ? "bytes=" + std::to_string(bytes.value())
                                  : bytes.status().ToString(),
                       job);
  }
  if (bytes.ok()) {
    breaker_.RecordSuccess();
    bytes_written_ += bytes.value();
    return;
  }
  // The run goes on without durability for this entry (DESIGN.md §12).
  breaker_.RecordFailure();
  if (flight_->enabled()) {
    flight_->Record("ckpt",
                    breaker_.open() ? "breaker-open" : "ckpt-commit-failed",
                    /*task=*/job, /*attempt=*/0, bytes.status().ToString(),
                    label_);
  }
  if (tracing) {
    trace_->RecordInstant(
        "ckpt", "ckpt-degraded", /*task=*/-1,
        (breaker_.open() ? "breaker open: " : "") + bytes.status().ToString());
  }
}

void QueryRun::CommitJob(int job, const std::string& name,
                         const MeasureValueMap& values) {
  Commit(job, name, [&] { return ckpt_->CommitJob(job, name, values); });
}

void QueryRun::CommitResultSet(const MeasureResultSet& results) {
  Commit(/*job=*/-1, "result",
         [&] { return ckpt_->CommitResultSet("result", results); });
}

Status QueryRun::Fail(Status failure) const {
  MaybeWriteDiagnosticBundle(diag_dir_, label_, failure,
                             DescribeOptions(options_), *flight_);
  return failure;
}

void QueryRun::Finish(MapReduceMetrics* metrics) {
  metrics->checkpoint_jobs_restored += jobs_restored_;
  metrics->checkpoint_bytes_restored += bytes_restored_;
  metrics->checkpoint_restore_failures += restore_failures_;
  metrics->checkpoint_bytes_written += bytes_written_;
  metrics->checkpoint_commit_failures += breaker_.commits_failed();
  metrics->checkpoint_commits_skipped += breaker_.commits_skipped();
  metrics->checkpoint_degraded =
      metrics->checkpoint_degraded || breaker_.degraded();
  if (ckpt_.has_value()) {
    // The checkpoint volume's resilience activity since Open.
    const DfsVolumeStats s = ckpt_->volume().stats();
    metrics->dfs_io_retries += s.io_retries - dfs_base_.io_retries;
    metrics->dfs_write_failovers +=
        s.write_failovers - dfs_base_.write_failovers;
    metrics->dfs_corrupt_replicas +=
        s.corrupt_replicas - dfs_base_.corrupt_replicas;
    metrics->dfs_repaired_replicas +=
        s.repaired_replicas - dfs_base_.repaired_replicas;
    metrics->dfs_under_replicated_blocks +=
        s.under_replicated_blocks - dfs_base_.under_replicated_blocks;
  }
  PublishQueryMetrics(MetricsRegistry::Global(), label_, *metrics);
}

ResultShards::ResultShards(int num_measures, int num_reducers)
    : num_measures_(num_measures),
      shards_(static_cast<size_t>(std::max(0, num_reducers)),
              Shard{MeasureResultSet(num_measures)}),
      total_{MeasureResultSet(num_measures)} {}

void ResultShards::Keep(Status s, Shard* shard) {
  if (!s.ok() && shard->first_error.ok()) shard->first_error = std::move(s);
}

void ResultShards::Merge(Shard&& from, Shard* into) {
  into->blocks += from.blocks;
  into->filtered += from.filtered;
  into->local_stats.Accumulate(from.local_stats);
  Keep(std::move(from.first_error), into);
  if (into->first_error.ok()) {
    Keep(into->results.MergeDisjoint(std::move(from.results)), into);
  }
}

void ResultShards::AddBlock(int reducer, MeasureResultSet&& results,
                            const LocalEvalStats& stats, int64_t filtered) {
  Merge(Shard{std::move(results), stats, Status::OK(), 1, filtered},
        &shards_[static_cast<size_t>(reducer)]);
}

void ResultShards::Add(int reducer, int measure, MeasureValueMap&& values) {
  Shard& shard = shards_[static_cast<size_t>(reducer)];
  Keep(MergeDisjointValues(measure, std::move(values),
                           &shard.results.mutable_values(measure)),
       &shard);
}

void ResultShards::Flush(int reducer) {
  Shard& shard = shards_[static_cast<size_t>(reducer)];
  {
    std::unique_lock<std::mutex> lock(mu_);
    Merge(std::move(shard), &total_);
  }
  // The merge spliced the nodes out; free the emptied bucket arrays now
  // rather than when the job ends.
  shard = Shard{MeasureResultSet(num_measures_)};
}

}  // namespace casm
