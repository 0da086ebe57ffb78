// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Checkpoint & recovery for multi-job evaluation. Real MapReduce stacks
// persist every job's output to the DFS so a mid-sequence fault loses
// only the in-flight job; this subsystem gives CASM the same property.
// Each completed job's MeasureValueMap (or a whole MeasureResultSet for
// single-pass evaluation) is encoded with io/record_codec, stamped with
// a fingerprint of the (workflow, table) pair, and committed to a
// DfsVolume (per-block CRC32, replicated, atomic manifest). A re-run
// with the same CheckpointOptions scans the log, verifies fingerprints
// and checksums, and restores committed jobs instead of recomputing
// them. Any verification failure — torn manifest, corrupt block, stale
// fingerprint — degrades to recompute, never to wrong results.

#ifndef CASM_CKPT_CHECKPOINT_H_
#define CASM_CKPT_CHECKPOINT_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "dfs/volume.h"
#include "local/measure_table.h"

namespace casm {

class Table;
class Workflow;

enum class CheckpointMode {
  /// Checkpointing off even if a directory is set.
  kDisabled,
  /// Restore committed entries, then commit each newly computed job.
  kResume,
  /// Discard this query's committed entries at Open, then commit fresh.
  kOverwrite,
};

struct CheckpointOptions {
  /// Root directory of the checkpoint DfsVolume; empty disables
  /// checkpointing entirely.
  std::string dir;
  CheckpointMode mode = CheckpointMode::kResume;
  /// Placement/replication/block-size knobs of the backing volume.
  DfsVolumeOptions volume;

  /// Consecutive commit failures before the checkpoint circuit breaker
  /// opens and the evaluator stops attempting commits (the query keeps
  /// running without durability). <= 0 disables the breaker.
  int breaker_failure_threshold = 3;
  /// While open, one probe commit is allowed through per interval; a
  /// successful probe closes the breaker again.
  double breaker_probe_seconds = 5.0;

  bool enabled() const {
    return !dir.empty() && mode != CheckpointMode::kDisabled;
  }
};

/// Reads CASM_CHECKPOINT_DIR; unset or empty leaves checkpointing off.
CheckpointOptions CheckpointOptionsFromEnv();

/// Fingerprint of the query shape: schema, every measure's name,
/// granularity, op, fn, field, edges, and expression text. Two workflows
/// with the same fingerprint compute the same logical results, so plan
/// and parallelism knobs are deliberately excluded.
uint64_t FingerprintWorkflow(const Workflow& workflow);

/// Fingerprint of the input data: row count, width, and every record.
uint64_t FingerprintTable(const Table& table);

/// FingerprintTable calls so far in this process. A test hook: a run with
/// no observability consumer and no checkpoint must hash no table.
int64_t TableFingerprintCount();

/// Combined fingerprint of a (workflow, table) pair — the identity under
/// which both evaluators checkpoint. Restoring requires both to match;
/// editing the query or the data invalidates old entries automatically.
uint64_t FingerprintQuery(const Workflow& workflow, const Table& table);

/// Circuit breaker guarding checkpoint commits (DESIGN.md §12). A
/// persistently failing checkpoint store must degrade the run to
/// "completed without durability", never fail the query — but retrying a
/// dead store on every job wastes the whole IO-retry budget each time.
/// The breaker opens after `failure_threshold` consecutive commit
/// failures; while open, ShouldAttempt() lets one probe through per
/// `probe_seconds` and skips (and counts) the rest. A successful probe
/// closes it. Evaluators commit from one thread, so this is
/// deliberately not thread-safe.
class CheckpointBreaker {
 public:
  CheckpointBreaker(int failure_threshold, double probe_seconds);

  /// True if the next commit should be attempted (breaker closed, or
  /// open and due for a half-open probe). When false, the caller skips
  /// the commit and the skip is counted.
  bool ShouldAttempt();
  void RecordSuccess();
  void RecordFailure();

  bool open() const { return open_; }
  /// True once any commit was skipped or failed — the run's results are
  /// (partially) not durable.
  bool degraded() const { return degraded_; }
  int consecutive_failures() const { return consecutive_failures_; }
  int64_t commits_skipped() const { return commits_skipped_; }
  int64_t commits_failed() const { return commits_failed_; }

 private:
  int failure_threshold_;
  double probe_seconds_;
  bool open_ = false;
  bool degraded_ = false;
  int consecutive_failures_ = 0;
  int64_t commits_skipped_ = 0;
  int64_t commits_failed_ = 0;
  /// steady-clock seconds of the next allowed probe while open.
  double next_probe_seconds_ = 0;
};

/// One query's checkpoint entries inside a DfsVolume. Entries are named
/// q<fingerprint>.job<i> / q<fingerprint>.result, so volumes can be
/// shared across queries and re-runs of a changed query never collide
/// with stale entries.
class CheckpointLog {
 public:
  /// Opens (creating if needed) the volume at options.dir. In kOverwrite
  /// mode, deletes this fingerprint's committed entries first.
  static Result<CheckpointLog> Open(const CheckpointOptions& options,
                                    uint64_t fingerprint);

  /// Restores job `job`'s committed values. NotFound if the entry was
  /// never committed; any other error (corrupt block, torn manifest,
  /// fingerprint/label mismatch) also means "recompute", but is
  /// distinguishable for logging. `label` must match the committing
  /// call (the measure name). On success `*bytes_restored` (if non-null)
  /// receives the payload size.
  Result<MeasureValueMap> TryRestoreJob(int job, const std::string& label,
                                        int64_t* bytes_restored = nullptr);

  /// Durably commits job `job`'s values; returns the payload size in
  /// bytes. An OK return means a crash after this point cannot lose the
  /// job.
  Result<int64_t> CommitJob(int job, const std::string& label,
                            const MeasureValueMap& values);

  /// Whole-result-set variants for single-pass (EvaluateParallel) runs.
  Result<MeasureResultSet> TryRestoreResultSet(
      const std::string& label, int64_t* bytes_restored = nullptr);
  Result<int64_t> CommitResultSet(const std::string& label,
                                  const MeasureResultSet& results);

  /// DFS entry name for job `job` (exposed for tests that corrupt
  /// specific blocks on disk).
  std::string JobEntryName(int job) const;
  std::string ResultEntryName() const;

  uint64_t fingerprint() const { return fingerprint_; }
  const DfsVolume& volume() const { return volume_; }

 private:
  CheckpointLog(DfsVolume volume, uint64_t fingerprint)
      : volume_(std::move(volume)), fingerprint_(fingerprint) {}

  Result<int64_t> CommitEntry(const std::string& name,
                              const std::string& label,
                              const std::string& payload);
  Result<std::string> RestoreEntry(const std::string& name,
                                   const std::string& label);

  DfsVolume volume_;
  uint64_t fingerprint_ = 0;
};

}  // namespace casm

#endif  // CASM_CKPT_CHECKPOINT_H_
