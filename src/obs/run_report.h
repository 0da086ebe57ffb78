// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Run reports: digest a recorded trace (obs/trace.h) into per-phase
// attempt-duration histograms and a short human-readable timeline
// summary. The engine builds one per traced run and carries the summary
// in MapReduceMetrics::run_report_summary; tests and tools can call
// BuildRunReport on any event snapshot (e.g. a filtered sub-trace).

#ifndef CASM_OBS_RUN_REPORT_H_
#define CASM_OBS_RUN_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/math.h"
#include "obs/trace.h"

namespace casm {

/// Attempt outcomes and durations of one task phase ("map" / "reduce").
struct PhaseAttemptHistogram {
  std::string phase;
  int64_t attempts = 0;  // every attempt span of this phase
  int64_t ok = 0;
  int64_t failed = 0;
  int64_t retried = 0;
  int64_t speculative_wins = 0;
  int64_t cancelled = 0;
  /// Durations of attempts that ran to natural completion (ok, failed,
  /// retried, speculative-win). Cancelled attempts are excluded: their
  /// durations measure cancellation latency, not work.
  QuantileSketch durations;
};

/// A digested trace: per-phase histograms plus memory/pool activity.
struct RunReport {
  double trace_begin_seconds = 0;
  double trace_end_seconds = 0;
  std::vector<PhaseAttemptHistogram> phases;  // encounter order (map first)
  int64_t admission_waits = 0;       // "memory"/"admission" spans
  double admission_wait_seconds = 0;
  int64_t spill_events = 0;          // emitter-spill instants
  int64_t pool_queue_spans = 0;      // "pool"/"queue-wait" spans
  double pool_queue_seconds = 0;

  /// Storage health: "dfs" category activity (dfs/volume.h) and
  /// checkpoint degradation instants ("ckpt-degraded"/"ckpt-skipped").
  int64_t dfs_reads = 0;           // "dfs-read" spans
  int64_t dfs_writes = 0;          // "dfs-write" spans
  int64_t dfs_scrubs = 0;          // "dfs-scrub" spans
  int64_t dfs_io_retries = 0;      // "dfs-retry" instants
  int64_t dfs_failovers = 0;       // "dfs-failover" instants
  int64_t dfs_repairs = 0;         // "dfs-repair" instants
  int64_t ckpt_degraded_events = 0;  // commit failed / commit skipped

  /// Plan-cache activity: "plancache" instants (core/plan_cache.h with a
  /// trace recorder installed, e.g. by the multi-query service).
  int64_t plan_cache_hits = 0;
  int64_t plan_cache_misses = 0;
  int64_t plan_cache_evictions = 0;

  /// Spans the recorder dropped because a thread hit its per-thread event
  /// cap (obs/trace.h). Set by the engine from
  /// TraceRecorder::dropped_events(), not derivable from the snapshot
  /// itself. Non-zero means every trace-derived number above — and
  /// downstream fits like FitStragglerSlowdown — saw truncated data.
  int64_t trace_dropped_events = 0;

  /// The histogram for `phase` ("map" / "reduce"), or null when the trace
  /// held no attempts of that phase.
  const PhaseAttemptHistogram* FindPhase(const std::string& phase) const;

  /// Multi-line human-readable rendering: one line per phase with
  /// p50/p90/p99/max attempt durations and outcome counts, plus memory
  /// and pool activity lines when present. Empty for an empty report.
  std::string Summary() const;
};

/// Digests `events` (a TraceRecorder::Snapshot, possibly filtered) into a
/// RunReport. Attempt spans are recognized by a non-kNone outcome on a
/// "map" or "reduce" category event.
RunReport BuildRunReport(const std::vector<TraceEvent>& events);

}  // namespace casm

#endif  // CASM_OBS_RUN_REPORT_H_
