// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// An in-process MapReduce engine (the paper's Hadoop substrate, §III-A,
// rebuilt from scratch). It executes the real dataflow — mappers emit
// key/value pairs, pairs are partitioned to reducers, each reducer groups
// its pairs by key and invokes a user reduce function per group — on a
// thread pool, with per-phase and per-reducer metrics.
//
// Keys and values are fixed-width int64 tuples, stored flattened
// ([key..., value...]) in per-(mapper, reducer) buffers, which keeps the
// shuffle allocation-free per pair. The number of reducers is *virtual*:
// it models the paper's cluster-task count and may exceed the worker
// thread count; per-reducer workloads are what the optimizer and the
// cluster model consume.
//
// Fault tolerance (the defining substrate property of the paper's Hadoop
// testbed): a map or reduce task attempt that fails — via a thrown
// exception, a non-OK internal status, or an injected fault — is retried
// up to `MapReduceSpec::max_task_attempts` times. A retried map attempt
// replays the mapper's split from a cleared Emitter, so a run that
// succeeds after retries produces output identical to a fault-free run.
// A reduce attempt is retried only while it has not yet delivered a group
// to `reduce_fn` (or reached `reduce_finish_fn`); once user output has
// started, a failure is terminal (delivered groups cannot be rolled back,
// and re-delivering them would duplicate side effects). Exhausted retries
// surface as a clean `Status` from Run() naming the phase and task — the
// process never dies.
//
// Straggler resilience (the Hadoop defense the paper's evaluation leans
// on — the response time is dominated by the heaviest reducer, §IV):
//
//   * Cooperative cancellation: every task execution runs under a
//     CancellationToken chained to a job-level token. The engine polls
//     tokens between splits, groups, and injected delays; user map/reduce
//     functions doing unbounded work should poll `Emitter::cancelled()` /
//     `GroupView::cancelled()` and return early.
//   * Deadlines: `MapReduceSpec::deadline_seconds` arms the job token
//     with a wall-clock deadline; on expiry in-flight executions abort at
//     their next poll and Run() returns DeadlineExceeded — never a hang
//     (given cooperative user code).
//   * Speculative execution: when a phase is mostly complete and one task
//     execution has run far longer than the median completed execution, a
//     backup execution of the same task is launched; whichever finishes
//     first wins and the loser is cancelled. Map tasks are backed up
//     unconditionally (each execution emits into its own buffers and only
//     the winner's are shuffled). A reduce task is backed up only while
//     no execution has delivered a group, and an atomic output-ownership
//     gate guarantees at most one execution of a task ever invokes
//     `reduce_fn` — losers can never contribute output, so any mix of
//     faults, stragglers, and speculative wins yields results identical
//     to a fault-free run.
//
// Memory-budgeted execution (the admission-control discipline of the
// paper's substrate — a task never runs unless its working set fits):
// `MapReduceSpec::memory_budget_bytes` caps the bytes tracked across the
// whole run. Emitters account their buffered pairs and spill them as runs,
// in emission order, to disk past `emitter_spill_threshold_bytes`
// (replayed at shuffle, so a spilled run reduces bit-identically to an
// unspilled one);
// map and reduce task launches reserve a projected footprint before
// starting and queue — cancellably, deadlines honored — while the budget
// is full. A single task whose minimum reservation exceeds the whole
// budget fails cleanly with a descriptive Status instead of deadlocking.

#ifndef CASM_MR_ENGINE_H_
#define CASM_MR_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/fault.h"
#include "common/memory_budget.h"
#include "common/result.h"
#include "mr/metrics.h"

namespace casm {

class FlightRecorder;
class ProgressTracker;
class ThreadPool;
class TraceRecorder;

/// The engine's key-to-reducer hash (reducer = hash % num_reducers).
/// Exposed so that the skew module's simulated dispatch predicts exactly
/// the assignment a real run would produce.
uint64_t PartitionHash(const int64_t* key, int width);

/// Columnar PartitionHash: hashes `n` keys whose components live in
/// `key_width` separate columns (`key_cols[c][i]` is component c of key i)
/// into `out[i]`. One tight FNV accumulate loop per column plus one fmix64
/// finalize pass — bit-identical to PartitionHash on the gathered rows, so
/// batched and row-at-a-time emits route every pair to the same reducer.
void PartitionHashColumns(const int64_t* const* key_cols, int key_width,
                          int64_t n, uint64_t* out);

/// Mapper-side sink for key/value pairs. Not thread-safe; each mapper task
/// execution owns one.
///
/// Memory discipline: with a spill threshold configured (directly, or
/// derived from `MapReduceSpec::memory_budget_bytes`), the emitter
/// accounts its flattened-pair bytes and, past the threshold, sorts each
/// reducer's buffered pairs by key and spills them as runs to disk (the
/// map-side spill of Hadoop's MapTask, paper §III-A); spilled runs are
/// replayed at shuffle. Each execution owns its runs: Clear() (the
/// retry replay) and the destructor drop them, so a retried or
/// speculation-losing attempt can never leak pairs into the shuffle.
class Emitter {
 public:
  Emitter(int num_reducers, int key_width, int value_width);
  ~Emitter();

  Emitter(const Emitter&) = delete;
  Emitter& operator=(const Emitter&) = delete;

  /// Routes (key, value) to the reducer that owns `key`. The partition is
  /// a hash of the key — the uniform random block assignment of §IV-A.
  void Emit(const int64_t* key, const int64_t* value);

  /// Batched Emit: routes `n` pairs whose key components live in
  /// `key_width` separate columns (`key_cols[c][i]`) and whose values are
  /// row-major contiguous (`values + i * value_width`, ignored when
  /// value_width is 0). Partition hashes are computed vectorized over the
  /// key columns (PartitionHashColumns); routing, emit order, throttle
  /// charges, and spill/budget accounting are identical to calling Emit
  /// per pair, so the shuffle output is bit-identical to the row path.
  void EmitBatch(const int64_t* const* key_cols, const int64_t* values,
                 int64_t n);

  /// Discards every buffered pair, deletes this execution's spilled runs,
  /// shrinks the per-reducer buffers back to empty capacity, and returns
  /// any incrementally-tracked bytes to the budget. The engine calls this
  /// before each map task attempt so a retried mapper replays its split
  /// from scratch without holding its previous attempt's footprint.
  void Clear();

  int64_t emitted() const { return emitted_; }

  /// Bytes currently buffered in memory (spilled bytes excluded).
  int64_t buffered_bytes() const { return buffered_bytes_; }
  /// Runs this emitter has written to disk across its lifetime,
  /// and the pairs they contained (cumulative; Clear() does not reset
  /// them — the I/O happened).
  int64_t spilled_runs() const { return spilled_runs_; }
  int64_t spilled_records() const { return spilled_records_; }

  /// Wires memory accounting: track flattened-pair bytes against `budget`
  /// (may be null), treating `base_reserved_bytes` as already reserved by
  /// the caller, and spill to `spill_dir` once the buffered bytes exceed
  /// `spill_threshold_bytes` (0 disables spilling). `trace` (may be null)
  /// receives a "memory" instant per spill; `flight` (may be null)
  /// receives a "memory"/"emitter-spill" ring event stamped with
  /// `query_label`. Engine-internal, but public so tests can drive an
  /// Emitter directly.
  void ConfigureMemory(MemoryBudget* budget, int64_t base_reserved_bytes,
                       int64_t spill_threshold_bytes, std::string spill_dir,
                       TraceRecorder* trace = nullptr,
                       FlightRecorder* flight = nullptr,
                       std::string query_label = std::string());

  /// Spills every buffered pair (used by the engine at the end of a
  /// successful map attempt so a completed task holds no memory while it
  /// waits for shuffle); no-op when spilling is not configured. A non-OK
  /// status (spill I/O failed) fails the attempt.
  Status FinalSpill();

  /// Non-OK when memory accounting failed mid-emit (spill I/O error, or
  /// the budget was exhausted with spilling disabled). `cancelled()`
  /// turns true as well so cooperative map loops bail out promptly; the
  /// engine fails the attempt with this status.
  const Status& memory_status() const { return memory_status_; }

  /// Pairs destined for `reducer`, buffered and spilled combined.
  int64_t PairsForReducer(int reducer) const;

  /// Appends reducer `reducer`'s pairs onto `out` as flattened
  /// [key..., value...] records in emission order: the spilled runs
  /// replayed from disk, oldest first, then the in-memory buffer.
  /// Internal when a run cannot be read back in full.
  Status GatherReducer(int reducer, std::vector<int64_t>* out) const;

  /// Arms per-record throttling for the current attempt: every emitted
  /// pair charges `seconds_per_record`, slept cancellably once the owed
  /// delay accumulates past a millisecond. 0 disarms. Engine-set from
  /// the fault plan's record throttle; public for direct tests.
  void set_record_throttle(double seconds_per_record) {
    throttle_seconds_per_record_ = seconds_per_record;
    throttle_owed_seconds_ = 0;
  }

  /// True when the attempt driving this emitter has been cancelled (the
  /// job deadline expired, or this attempt lost a speculation race). Long
  /// map functions should poll this every few thousand rows and return
  /// early; the engine discards the attempt's output.
  bool cancelled() const {
    return !memory_status_.ok() ||
           (cancel_ != nullptr && cancel_->cancelled());
  }
  /// The driving attempt's token (null outside an engine run), for
  /// forwarding into nested cancellable work.
  const CancellationToken* cancellation_token() const { return cancel_; }

 private:
  friend class MapReduceEngine;

  /// One spilled run of a reducer's pairs inside the spill file.
  struct SpillSegment {
    int64_t offset_int64s;  // where the run starts in the file
    int64_t count_int64s;   // run length
  };

  /// Appends every non-empty reducer buffer, unsorted, as a run to this
  /// execution's spill file, releases the buffers, and returns
  /// incrementally-tracked bytes to the budget. Sets memory_status_ on
  /// I/O failure.
  void SpillBuffers();
  /// Post-emit accounting shared by Emit and EmitBatch: counts the pair's
  /// bytes, spills past the threshold, and reserves budget chunks.
  void AccountEmittedPair();
  /// Deletes this execution's spill file and forgets the segments.
  void DropSpillFile();

  int key_width_;
  int value_width_;
  int64_t emitted_ = 0;
  const CancellationToken* cancel_ = nullptr;  // not owned; set per attempt
  TraceRecorder* trace_ = nullptr;             // not owned; may be null
  FlightRecorder* flight_ = nullptr;           // not owned; may be null
  std::string query_label_;                    // stamped on flight events
  // Per-reducer buffer of flattened [key..., value...] entries.
  std::vector<std::vector<int64_t>> buffers_;

  // Memory accounting + map-side spill (see ConfigureMemory).
  MemoryBudget* budget_ = nullptr;  // not owned
  int64_t base_reserved_bytes_ = 0;
  int64_t spill_threshold_bytes_ = 0;
  std::string spill_dir_;
  int64_t buffered_bytes_ = 0;
  /// Bytes this emitter reserved itself beyond base_reserved_bytes_
  /// (chunked, so emitting is not one budget lock per pair).
  int64_t extra_reserved_bytes_ = 0;
  int64_t spilled_runs_ = 0;
  int64_t spilled_records_ = 0;
  Status memory_status_;
  /// This execution's spill file; empty until the first spill.
  std::string spill_file_;
  std::vector<std::vector<SpillSegment>> spilled_;  // per reducer
  // Per-record throttling (see set_record_throttle).
  double throttle_seconds_per_record_ = 0;
  double throttle_owed_seconds_ = 0;
  // EmitBatch hash scratch, reused across batches.
  std::vector<uint64_t> hash_scratch_;
};

/// A key group handed to the reduce function: `size()` values sharing one
/// key, stored at a fixed stride.
class GroupView {
 public:
  GroupView(const int64_t* base, int64_t count, int key_width,
            int value_width, const CancellationToken* cancel = nullptr)
      : base_(base),
        count_(count),
        key_width_(key_width),
        pair_width_(key_width + value_width),
        cancel_(cancel) {}

  const int64_t* key() const { return base_; }
  int64_t size() const { return count_; }
  const int64_t* value(int64_t i) const {
    return base_ + i * pair_width_ + key_width_;
  }

  /// Replaces `out`'s contents with the values as one contiguous row-major
  /// buffer (keys stripped). Reusing `out` across groups keeps its
  /// capacity, so a reducer copies its blocks without allocating per block.
  void CopyValuesInto(std::vector<int64_t>* out) const;

  /// True when the delivering reduce attempt has been cancelled (e.g. the
  /// job deadline expired). Long reduce functions should poll this and
  /// return early; the whole run is failing anyway.
  bool cancelled() const { return cancel_ != nullptr && cancel_->cancelled(); }
  /// The delivering attempt's token (null outside an engine run).
  const CancellationToken* cancellation_token() const { return cancel_; }

 private:
  const int64_t* base_;
  int64_t count_;
  int key_width_;
  int pair_width_;
  const CancellationToken* cancel_ = nullptr;  // not owned
};

/// Specification of one MapReduce job.
struct MapReduceSpec {
  int num_mappers = 1;   // input splits / map tasks
  int num_reducers = 1;  // virtual reduce tasks
  int key_width = 1;     // int64s per key
  int value_width = 1;   // int64s per value

  /// Map task: process input rows [begin, end) and emit pairs. Throwing an
  /// exception fails the attempt (retried, see max_task_attempts).
  std::function<void(int64_t begin, int64_t end, Emitter* emitter)> map_fn;

  /// Optional input-split assignment (e.g. from a DistributedFile's
  /// locality-aware scheduler): the row ranges mapper `m` processes.
  /// Default: one contiguous chunk per mapper.
  std::function<std::vector<std::pair<int64_t, int64_t>>(int mapper)>
      split_fn;

  /// Reduce: invoked once per key group. May be empty (map-only job).
  /// Invoked concurrently for groups of different reducers; groups of one
  /// reducer are delivered sequentially in key order. Throwing an
  /// exception fails the reduce task (terminal once any group of that
  /// task has been delivered — see the header comment).
  std::function<void(int reducer, const GroupView& group)> reduce_fn;

  /// Optional end-of-task hook (Hadoop's Reducer.cleanup): invoked once per
  /// reduce task, after its last reduce_fn call and on the same thread, by
  /// the one execution that owns the task's output — a task with no groups
  /// claims ownership here, so under speculation exactly one execution
  /// calls it. Counts as delivered output (a failure after it is terminal)
  /// and runs inside the task's reduce timing. Reducers use it to flush
  /// per-task state without a lock per group. Never invoked under
  /// map_only or skip_reduce.
  std::function<void(int reducer)> reduce_finish_fn;

  /// Optional end-of-job hook (Hadoop's OutputCommitter.commitJob):
  /// invoked once, on the thread that called Run(), after every reduce
  /// task has finished, and counted in the reduce phase's wall time. Not
  /// invoked when the reduce phase fails, or under map_only or
  /// skip_reduce. Reducers use it to assemble the job's output from their
  /// per-task state in one pass.
  std::function<void()> job_commit_fn;

  /// Optional secondary sort: orders values within a key group (the
  /// combined-sort optimization of §III-D, where the framework sort also
  /// establishes the local algorithm's record order).
  std::function<bool(const int64_t* a, const int64_t* b)> value_less;

  /// Stop after the map phase (the "Map-Only" bar of Fig 4(d)).
  bool map_only = false;
  /// Group pairs by key but skip reduce_fn (the "MR" bar of Fig 4(d)).
  bool skip_reduce = false;

  /// Directory for map-side spill runs (empty = system temp dir).
  std::string spill_dir;

  // ---- Memory accounting and admission control (paper §III-A: the
  // framework never runs a task whose working set it cannot hold; see
  // common/memory_budget.h and DESIGN.md §8).

  /// Process-wide byte budget for this run: emitter buffers are tracked
  /// against it and every task launch reserves its projected footprint
  /// first, queueing (cancellably) when the budget is full — so
  /// speculation's doubled executions pace themselves instead of
  /// overcommitting. 0 = unlimited (accounting only: peak_tracked_bytes
  /// still measures the run). A budget with no explicit
  /// emitter_spill_threshold_bytes derives one (budget / (4 x worker
  /// threads), floored at 4 KiB) so map outputs spill instead of pinning
  /// the budget across the shuffle.
  int64_t memory_budget_bytes = 0;
  /// Map-side spill threshold per task execution, in bytes of flattened
  /// pairs: past it the emitter writes each reducer's buffer, in
  /// emission order, as a run to `spill_dir`, replaying the runs at
  /// shuffle.
  /// 0 = no map-side spilling (unless derived from memory_budget_bytes).
  int64_t emitter_spill_threshold_bytes = 0;

  /// Maximum attempts per map/reduce task (>= 1); the Hadoop-style retry
  /// budget. 2 means one retry after the first failure.
  int max_task_attempts = 2;
  /// Delay before replaying a failed attempt: exponential backoff starting
  /// here, doubling per retry, capped by `retry_backoff_max_ms`, with
  /// deterministic equal jitter (delay in [base/2, base]). 0 = replay
  /// immediately (the historical behavior). Sleeps are cancellable.
  int64_t retry_backoff_initial_ms = 0;
  /// Upper bound for the per-retry backoff delay.
  int64_t retry_backoff_max_ms = 1000;
  /// Fault plan (common/fault.h): the one source of injected task
  /// crashes, pre-attempt slowdowns and per-record throttles. Consulted
  /// at the start of every task attempt with the phase ("map" / "reduce"),
  /// task id and 1-based attempt number; a speculative backup execution
  /// continues the numbering at max_task_attempts+1, so a plan can slow a
  /// task's primary execution and leave its backup fast. null = the
  /// process-global CASM_FAULT_PLAN plan (if any); a malformed
  /// CASM_FAULT_PLAN makes Run() return InvalidArgument. Not owned; must
  /// outlive Run().
  const FaultPlan* fault_plan = nullptr;

  // ---- Straggler resilience (see the header comment).

  /// Wall-clock budget for the whole job; <= 0 means none. On expiry all
  /// in-flight executions are cancelled cooperatively and Run() returns
  /// DeadlineExceeded. Finished work is not invalidated: a job whose last
  /// task completes before any execution observes the expired deadline
  /// still succeeds.
  double deadline_seconds = 0;
  /// Optional external cancellation: tripping this token aborts the job
  /// cooperatively and Run() returns Cancelled. Not owned.
  const CancellationToken* cancel = nullptr;

  /// Enables Hadoop-style speculative backup executions for straggling
  /// tasks. Policy: once at least `speculation_min_completed_fraction` of
  /// a phase's tasks have completed, any task whose sole running
  /// execution has been running longer than
  /// max(speculation_latency_multiple x median completed-execution
  /// duration, speculation_min_runtime_seconds) gets one backup
  /// execution; first finisher wins, the loser is cancelled. Map tasks
  /// are eligible unconditionally; reduce tasks only while no group has
  /// been delivered (the retry terminality rule).
  bool speculative_execution = false;
  /// Straggler threshold as a multiple of the median completed-execution
  /// duration (>= 1).
  double speculation_latency_multiple = 4.0;
  /// Fraction of the phase's tasks that must have completed before any
  /// backup launches (in [0, 1]; "the phase is mostly done").
  double speculation_min_completed_fraction = 0.5;
  /// Absolute floor for the straggler threshold, guarding against
  /// spurious backups when the median task takes microseconds.
  double speculation_min_runtime_seconds = 0.05;

  /// Run-trace recorder (obs/trace.h): the engine records per-attempt
  /// spans (task id, attempt number, outcome), admission waits, spills,
  /// and pool queue latency into it. null = use TraceRecorder::Global(),
  /// which is enabled only when CASM_TRACE is set — so the default costs
  /// one relaxed load per would-be event. Not owned; must outlive Run().
  TraceRecorder* trace = nullptr;

  // ---- Live observability (obs/metrics.h, obs/progress.h,
  // obs/flight_recorder.h). All three default to process-global
  // singletons that are disabled unless their environment variables are
  // set, so the default cost is one relaxed load per would-be event.

  /// Failure flight recorder: task failures/retries and emitter spills
  /// are recorded as ring events for the post-failure diagnostic bundle.
  /// null = FlightRecorder::Global() (enabled under CASM_DIAG_DIR). Not
  /// owned; must outlive Run().
  FlightRecorder* flight = nullptr;
  /// Live progress: the engine begins a phase per task phase and marks
  /// tasks as they resolve. null = no progress tracking. Not owned; must
  /// outlive Run().
  ProgressTracker* progress = nullptr;
  /// Query label stamped on flight events and progress gauges (the
  /// evaluators set the query fingerprint). Empty is fine.
  std::string query_label;
};

/// Executes MapReduce jobs on an internal thread pool. The pool is created
/// once and shared by every Run() call on this engine (tasks of sequential
/// jobs reuse the same workers, like a long-lived cluster). Run() calls on
/// one engine must not overlap; use one engine per concurrent caller.
class MapReduceEngine {
 public:
  /// `num_threads` <= 0 selects the hardware concurrency.
  explicit MapReduceEngine(int num_threads);
  ~MapReduceEngine();

  MapReduceEngine(const MapReduceEngine&) = delete;
  MapReduceEngine& operator=(const MapReduceEngine&) = delete;

  /// Runs the job over `num_input_rows` abstract input rows (the map_fn
  /// interprets row indices). Returns metrics on success; returns a
  /// non-OK Status naming the phase and task when a task exhausts its
  /// retry budget (user-code exceptions included — never std::terminate),
  /// DeadlineExceeded when `spec.deadline_seconds` expires first, and
  /// Cancelled when `spec.cancel` trips.
  Result<MapReduceMetrics> Run(const MapReduceSpec& spec,
                               int64_t num_input_rows);

  int num_threads() const { return num_threads_; }

 private:
  int num_threads_;
  std::unique_ptr<ThreadPool> pool_;
};

}  // namespace casm

#endif  // CASM_MR_ENGINE_H_
