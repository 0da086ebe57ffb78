// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Run tracing: a low-overhead flight recorder for the execution substrate.
// The MapReduce engine, the memory budget's admission path, the thread
// pool, and both evaluators record *spans* (named intervals with a task
// id, attempt number, and outcome) and *instant events* (spills,
// admission waits) into a TraceRecorder; consumers turn the recorded
// timeline into Chrome trace-event JSON (chrome://tracing / Perfetto),
// per-phase attempt-duration histograms (obs/run_report.h), and a fitted
// cluster-model straggler parameter (mr/cluster_model.h).
//
// Overhead contract:
//
//   * disabled (the default): every Record* call is one relaxed atomic
//     load and an immediate return — no allocation, no locking, no
//     clock read. Instrumented hot paths additionally guard their own
//     argument construction behind `enabled()`, so a disabled recorder
//     costs the same one load there too.
//   * enabled: each event is one clock read plus an append to a
//     per-thread buffer; the buffer's mutex is only ever contended by a
//     drain (Snapshot/WriteJson), so recording threads never contend
//     with each other. Per-thread buffers are capped (dropped events are
//     counted, never silently lost) so a runaway loop cannot exhaust
//     memory.
//
// Thread-safety and lifetime: Record* may be called from any number of
// threads concurrently with each other and with Snapshot/WriteJson. A
// recorder must outlive every thread that may still record into it; the
// process-global recorder (TraceRecorder::Global(), never destroyed)
// satisfies this trivially, and the engine's workers only record while a
// Run() holding the recorder pointer is in flight.
//
// Activation: set the environment variable CASM_TRACE=<path> and the
// global recorder starts enabled; at process exit the collected trace is
// written to <path> as Chrome trace JSON. Any binary that touches the
// engine honors it: `CASM_TRACE=run.json ./bench/fig_straggler`, then
// open run.json in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing. Tests and harnesses can instead construct their own
// recorder, call set_enabled(true), and pass it through
// MapReduceSpec::trace / ParallelEvalOptions::trace.

#ifndef CASM_OBS_TRACE_H_
#define CASM_OBS_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/status.h"

namespace casm {

/// How a recorded task attempt ended. kNone marks events that are not
/// attempts (phase/job spans, spills, queue waits).
enum class TraceOutcome {
  kNone,
  kOk,              // attempt succeeded and its results were installed
  kFailed,          // attempt failed terminally (retry budget exhausted,
                    // or reduce output already delivered)
  kRetried,         // attempt failed and a retry followed
  kSpeculativeWin,  // backup execution's attempt finished first and won
  kCancelled,       // cancelled mid-flight, or finished after the task
                    // was already won (output discarded)
};

/// Stable lowercase name ("ok", "failed", ...) used in JSON and reports.
const char* TraceOutcomeName(TraceOutcome outcome);

/// One recorded event. Spans have a duration; instants mark a point in
/// time. `category` must be a static-lifetime string (the span taxonomy
/// of DESIGN.md §9: "job", "phase", "map", "reduce", "memory", "pool",
/// "eval", "ckpt", "localagg").
struct TraceEvent {
  bool instant = false;
  const char* category = "";
  std::string name;
  double start_seconds = 0;     // since the recorder's epoch
  double duration_seconds = 0;  // 0 for instants
  uint64_t thread_id = 0;       // small per-process ordinal, filled on record
  int64_t task = -1;            // task id, -1 when not task-scoped
  int64_t attempt = 0;          // 1-based injector attempt number, 0 = n/a
  int64_t job = -1;             // multi-job sequence index, -1 = n/a
  TraceOutcome outcome = TraceOutcome::kNone;
  std::string detail;  // free-form tag (distribution key, spill counts)

  double end_seconds() const { return start_seconds + duration_seconds; }
};

/// Thread-safe span/instant recorder. Share by pointer; not copyable.
class TraceRecorder {
 public:
  TraceRecorder();
  ~TraceRecorder();

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// The disabled fast path: one relaxed load.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// Seconds since this recorder's construction (the time base of every
  /// recorded event). Monotonic.
  double NowSeconds() const { return SecondsSince(epoch_); }

  /// Records `event`, filling `thread_id` with the calling thread's
  /// ordinal when 0. No-op when disabled.
  void Record(TraceEvent event);

  /// Records a span [start_seconds, end_seconds] (timestamps from
  /// NowSeconds()). No-op when disabled.
  void RecordSpan(const char* category, std::string name,
                  double start_seconds, double end_seconds,
                  int64_t task = -1, int64_t attempt = 0,
                  TraceOutcome outcome = TraceOutcome::kNone,
                  std::string detail = std::string(), int64_t job = -1);

  /// Records an instant event stamped with NowSeconds(). No-op when
  /// disabled.
  void RecordInstant(const char* category, std::string name,
                     int64_t task = -1, std::string detail = std::string());

  /// Copies out every recorded event, ordered by start time. Safe to call
  /// while other threads record (events recorded concurrently with the
  /// drain may or may not be included).
  std::vector<TraceEvent> Snapshot() const;
  /// Like Snapshot(), but copies only events ending at or after
  /// `since_seconds`, so a drain after one run of many skips the rest.
  std::vector<TraceEvent> Snapshot(double since_seconds) const;

  /// Events dropped because a per-thread buffer hit its cap.
  int64_t dropped_events() const;

  /// Discards every recorded event (buffers stay registered).
  void Clear();

  /// The collected trace as a Chrome trace-event JSON document
  /// (chrome://tracing / Perfetto loadable).
  std::string ToChromeJson() const;

  /// Writes ToChromeJson() to `path`.
  Status WriteJson(const std::string& path) const;

  /// The process-global recorder (never destroyed). Starts enabled iff
  /// the environment variable CASM_TRACE names an output path, in which
  /// case the trace is also written there at process exit. The engine
  /// records into this instance unless a spec provides its own.
  static TraceRecorder* Global();

  /// Opaque per-thread event buffer (definition private to trace.cc).
  struct ThreadBuffer;

 private:
  /// This thread's buffer, registering one on first use (per recorder).
  ThreadBuffer* BufferForThisThread();

  const std::chrono::steady_clock::time_point epoch_;
  const uint64_t recorder_id_;  // process-unique, validates cached slots
  std::atomic<bool> enabled_{false};
  mutable std::mutex registry_mu_;  // guards buffers_ (the list itself)
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
};

/// Serializes `events` (as produced by TraceRecorder::Snapshot) into a
/// Chrome trace-event JSON document. Exposed for tests and for writing
/// filtered sub-traces.
std::string TraceEventsToChromeJson(const std::vector<TraceEvent>& events);

}  // namespace casm

#endif  // CASM_OBS_TRACE_H_
