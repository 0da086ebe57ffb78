// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// A writable DFS volume backed by a real on-disk directory. dfs/dfs.h
// simulates *placement* of an immutable table; this file adds durable
// named files on top of the same placement logic: a file is split into
// fixed-size byte blocks, every block is CRC32-stamped and written to
// `replication` distinct simulated nodes (subdirectories `node<k>/`),
// and the file becomes visible only when its manifest is atomically
// committed (write temp + fsync + rename). Readers verify each block's
// checksum and fall back to the next replica on mismatch, so torn or
// corrupted blocks degrade to an error — never to silently wrong bytes.
// The checkpoint subsystem (src/ckpt) stores per-job results here.
//
// Storage fault domains (DESIGN.md §12): the volume tolerates failing
// and absent nodes, not just corrupted bytes.
//
//   * Node health: a node whose operations keep failing
//     (`suspect_failure_threshold` consecutive errors) is marked suspect
//     and deprioritized for placement until an operation against it
//     succeeds again.
//   * Write failover: when a block's preferred replica node is down or
//     keeps failing, the writer places the replica on the next healthy
//     node instead; the manifest records the *actual* placement.
//   * Read retry: transient per-replica read errors are retried up to
//     `max_io_retries` times with exponential backoff + decorrelated
//     jitter before falling back to the next replica.
//   * Repair-on-read: a replica that fails its CRC while a good copy
//     exists is rewritten from the good copy, and the rot is counted and
//     logged once per block.
//   * Scrub(): a full verification pass that re-replicates
//     under-replicated blocks, rewrites corrupt replicas, garbage
//     collects stale staging files, and reports per-node damage.
//
// Fault injection: all simulated failures (IO errors, outage windows,
// silent block corruption) come from a common/fault.h FaultPlan —
// `DfsVolumeOptions::fault_plan`, or the process-global CASM_FAULT_PLAN
// plan when unset. Resilience activity is surfaced as DfsVolumeStats,
// "dfs" trace spans/instants, and (via the evaluators) MapReduceMetrics.

#ifndef CASM_DFS_VOLUME_H_
#define CASM_DFS_VOLUME_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"

namespace casm {

class FaultPlan;
class TraceRecorder;

struct DfsVolumeOptions {
  /// Simulated cluster nodes (subdirectories of the volume root).
  int num_nodes = 4;
  /// Replicas per block (clamped to num_nodes).
  int replication = 2;
  /// Bytes per block; files are split into blocks of this size.
  int64_t block_size_bytes = 64 * 1024;
  /// Placement seed; the per-file seed also mixes in the file name so
  /// different files spread over different nodes deterministically.
  uint64_t seed = 0xd15c;

  // ---- Resilience knobs (see the header comment).

  /// Retries per replica IO operation after a transient failure (so a
  /// replica op runs at most 1 + max_io_retries times).
  int max_io_retries = 2;
  /// First retry backoff; doubles per retry with decorrelated jitter.
  int64_t io_retry_backoff_initial_ms = 1;
  /// Backoff cap.
  int64_t io_retry_backoff_max_ms = 50;
  /// Consecutive failed operations before a node is marked suspect and
  /// deprioritized for writes.
  int suspect_failure_threshold = 3;
  /// Orphaned staging files older than this are garbage collected by
  /// Open() and Scrub().
  double staging_gc_age_seconds = 3600;

  /// Fault injection source. null = the process-global CASM_FAULT_PLAN
  /// plan (if any); a malformed one makes commits, reads and scrubs
  /// return InvalidArgument. Not owned; must outlive the volume.
  const FaultPlan* fault_plan = nullptr;
  /// Trace recorder for "dfs" spans/instants. null = the global one
  /// (enabled only under CASM_TRACE). Not owned.
  TraceRecorder* trace = nullptr;
};

/// Cumulative resilience counters for one opened volume (shared by every
/// copy of the handle).
struct DfsVolumeStats {
  int64_t io_retries = 0;          // replica ops replayed after backoff
  int64_t write_failovers = 0;     // replicas placed off their preferred node
  int64_t corrupt_replicas = 0;    // CRC/size mismatches observed on read
  int64_t repaired_replicas = 0;   // bad replicas rewritten from a good copy
  int64_t under_replicated_blocks = 0;  // committed/scrubbed below target
  int64_t nodes_suspected = 0;     // suspect transitions (cumulative)
  int64_t staging_files_removed = 0;  // orphans garbage collected
};

/// Result of one Scrub() pass.
struct ScrubReport {
  int64_t files_scanned = 0;
  int64_t blocks_checked = 0;
  int64_t replicas_checked = 0;
  int64_t replicas_missing = 0;
  int64_t replicas_corrupt = 0;
  int64_t replicas_rewritten = 0;
  /// Blocks found below the replication target *before* repairs.
  int64_t under_replicated_blocks = 0;
  /// Blocks with no intact replica anywhere (data loss; not repairable).
  int64_t unrecoverable_blocks = 0;
  int64_t staging_files_removed = 0;
  /// Missing + corrupt replicas found per node.
  std::vector<int64_t> bad_replicas_per_node;

  std::string ToString() const;
};

/// A directory-backed block store. Open() creates the root directory;
/// files are created with CreateFile()/Append()/Commit() (or the
/// WriteFile() convenience), read back with ReadFile(), and are durable
/// and atomic: a file either committed fully or does not exist.
class DfsVolume {
 public:
  /// Per-read diagnostics (how hard the volume had to work).
  struct ReadStats {
    int64_t blocks_read = 0;
    /// Replicas skipped because of a missing file, IO error, short
    /// block, or CRC mismatch before a good copy was found.
    int64_t replica_fallbacks = 0;
    /// Replicas whose bytes were present but failed CRC/size checks.
    int64_t corrupt_replicas = 0;
    /// Bad replicas rewritten from a good copy (repair-on-read).
    int64_t repaired_replicas = 0;
  };

  /// Streaming writer for one file. Append() buffers and seals full
  /// blocks into a staging file; Commit() places replicas and publishes
  /// the manifest atomically. Destroying an uncommitted writer discards
  /// the staged data. Move-only.
  class FileWriter {
   public:
    /// Shared resilience state (health tracking, counters); defined in
    /// volume.cc only — opaque to clients.
    struct Runtime;

    FileWriter(FileWriter&& other) noexcept;
    FileWriter& operator=(FileWriter&& other) noexcept;
    FileWriter(const FileWriter&) = delete;
    FileWriter& operator=(const FileWriter&) = delete;
    ~FileWriter();

    Status Append(std::string_view bytes);

    /// Seals the final block, writes every block to its replicas
    /// (placement via DistributedFile::Store, with failover to the next
    /// healthy node when a preferred node is down or failing), fsyncs
    /// them, then atomically publishes the manifest — which records the
    /// actual replica placement. After an OK Commit the file is durable;
    /// on error nothing is visible. Commit replaces any previously
    /// committed file of the same name.
    Status Commit();

    int64_t bytes_written() const { return total_bytes_; }

   private:
    friend class DfsVolume;
    FileWriter(std::string root, DfsVolumeOptions options, std::string name,
               std::shared_ptr<Runtime> runtime);

    Status EnsureStaging();
    Status SealBlock(std::string_view bytes);
    void Discard();

    std::string root_;
    DfsVolumeOptions options_;
    std::string name_;
    std::string staging_path_;
    std::FILE* staging_ = nullptr;
    std::string pending_;
    std::vector<int64_t> block_sizes_;
    std::vector<uint32_t> block_crcs_;
    int64_t total_bytes_ = 0;
    bool committed_ = false;
    std::shared_ptr<Runtime> runtime_;
  };

  DfsVolume(const DfsVolume&);
  DfsVolume& operator=(const DfsVolume&);
  DfsVolume(DfsVolume&&) noexcept;
  DfsVolume& operator=(DfsVolume&&) noexcept;
  ~DfsVolume();

  /// Opens (creating if needed) a volume rooted at `root_dir`. Garbage
  /// collects stale staging orphans left by crashed writers.
  static Result<DfsVolume> Open(const std::string& root_dir,
                                const DfsVolumeOptions& options = {});

  /// Starts a new file. `name` may contain only [A-Za-z0-9._-] and must
  /// not start with a dot. The file is invisible until Commit().
  Result<FileWriter> CreateFile(const std::string& name) const;

  /// CreateFile + Append + Commit in one call.
  Status WriteFile(const std::string& name, std::string_view bytes) const;

  /// True iff a committed manifest for `name` exists.
  bool Exists(const std::string& name) const;

  /// Reads a committed file back, verifying the manifest checksum and
  /// every block's CRC32. Transient replica errors are retried with
  /// backoff; corrupt replicas fall back to the next replica, are
  /// counted, logged once per block, and repaired from the good copy.
  /// NotFound if never committed; Internal if the manifest is torn or a
  /// block is unreadable on all replicas.
  Result<std::string> ReadFile(const std::string& name,
                               ReadStats* stats = nullptr) const;

  /// Removes the manifest first (the commit point), then the block
  /// replicas. OK if the file does not exist.
  Status DeleteFile(const std::string& name) const;

  /// Names of all committed files, sorted.
  std::vector<std::string> ListFiles() const;

  /// Full verification + repair pass: checks every replica of every
  /// committed block against its manifest, rewrites corrupt replicas and
  /// re-replicates under-replicated blocks from a good copy (rewriting
  /// the manifest when placement changes), garbage collects stale
  /// staging files, and reports per-node damage counts. A follow-up
  /// Scrub() on a repairable volume reports zero under-replicated
  /// blocks.
  Result<ScrubReport> Scrub() const;

  /// Snapshot of this volume's cumulative resilience counters.
  DfsVolumeStats stats() const;

  /// True while `node` is marked suspect (kept failing operations).
  bool NodeSuspect(int node) const;

  const std::string& root() const { return root_; }
  const DfsVolumeOptions& options() const { return options_; }

 private:
  using Runtime = FileWriter::Runtime;

  DfsVolume(std::string root, DfsVolumeOptions options,
            std::shared_ptr<Runtime> runtime);

  std::string root_;
  DfsVolumeOptions options_;
  std::shared_ptr<Runtime> runtime_;
};

}  // namespace casm

#endif  // CASM_DFS_VOLUME_H_
