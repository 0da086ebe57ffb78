// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "mr/engine.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <mutex>
#include <numeric>
#include <thread>

#include "common/cancellation.h"
#include "common/clock.h"
#include "common/logging.h"
#include "common/math.h"
#include "common/memory_budget.h"
#include "common/thread_pool.h"
#include "mr/cluster_model.h"
#include "mr/external_sort.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/run_report.h"
#include "obs/trace.h"

namespace casm {
namespace {

/// Which side of the job a task attempt belongs to.
enum class MapReduceTaskPhase { kMap, kReduce };

/// "map" / "reduce": the phase name the fault plan, traces, progress and
/// error messages see.
const char* TaskPhaseName(MapReduceTaskPhase phase) {
  return phase == MapReduceTaskPhase::kMap ? "map" : "reduce";
}

/// Emitters account buffered bytes against the budget in chunks of this
/// size, so emitting is not one budget lock per pair. Also the slack the
/// engine adds on top of the spill threshold when projecting a map
/// task's footprint.
constexpr int64_t kEmitterAccountChunkBytes = 64 * 1024;

int CompareKeys(const int64_t* a, const int64_t* b, int width) {
  for (int i = 0; i < width; ++i) {
    if (a[i] != b[i]) return a[i] < b[i] ? -1 : 1;
  }
  return 0;
}

/// Shared failure/retry accounting across a job's task attempts.
struct RetryCounters {
  std::mutex mu;
  int64_t failures = 0;
  int64_t retries = 0;
};

/// Live registry counters for rare engine events. The instruments are
/// resolved once (GetCounter takes the registry lock) and cached in
/// function-local statics; Increment() is inert while the registry is
/// disabled, so the default path stays at one relaxed load.
MetricsRegistry::Counter* TaskFailedCounter(MapReduceTaskPhase phase) {
  static MetricsRegistry::Counter* const map_counter =
      MetricsRegistry::Global()->GetCounter(
          "casm_tasks_failed_total",
          "Task attempts that failed (both retried and terminal).",
          {{"phase", "map"}});
  static MetricsRegistry::Counter* const reduce_counter =
      MetricsRegistry::Global()->GetCounter(
          "casm_tasks_failed_total",
          "Task attempts that failed (both retried and terminal).",
          {{"phase", "reduce"}});
  return phase == MapReduceTaskPhase::kMap ? map_counter : reduce_counter;
}

MetricsRegistry::Counter* TaskRetriedCounter(MapReduceTaskPhase phase) {
  static MetricsRegistry::Counter* const map_counter =
      MetricsRegistry::Global()->GetCounter(
          "casm_tasks_retried_total",
          "Failed task attempts that were replayed.", {{"phase", "map"}});
  static MetricsRegistry::Counter* const reduce_counter =
      MetricsRegistry::Global()->GetCounter(
          "casm_tasks_retried_total",
          "Failed task attempts that were replayed.", {{"phase", "reduce"}});
  return phase == MapReduceTaskPhase::kMap ? map_counter : reduce_counter;
}

/// Timestamps (trace time base) of an execution's final, successful
/// attempt. The retry loop cannot classify a success — whether it is an
/// "ok", a "speculative-win", or a too-late "cancelled" loser is decided
/// by the phase runner under its lock — so the span is handed back here
/// and recorded by the caller once the race is settled.
struct SuccessSpan {
  bool valid = false;
  int attempt = 0;
  double start_seconds = 0;
  double end_seconds = 0;
};

/// Deterministic backoff delay (seconds) before replaying `task` after
/// its `attempt`-th failure. Exponential in the attempt number, capped,
/// with equal jitter (delay in [base/2, base]) hashed from the site so
/// concurrent retries decorrelate while replays stay reproducible.
double RetryBackoffSeconds(const MapReduceSpec& spec,
                           MapReduceTaskPhase phase, int task, int attempt) {
  if (spec.retry_backoff_initial_ms <= 0) return 0;
  const int64_t cap =
      std::max(spec.retry_backoff_max_ms, spec.retry_backoff_initial_ms);
  int64_t base = spec.retry_backoff_initial_ms;
  for (int i = 1; i < attempt && base < cap; ++i) base *= 2;
  base = std::min(base, cap);
  uint64_t h = 0xba0cull ^ (static_cast<uint64_t>(task) << 20) ^
               (static_cast<uint64_t>(attempt) << 4) ^
               (phase == MapReduceTaskPhase::kMap ? 0ull : 1ull);
  h += 0x9e3779b97f4a7c15ull;
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ull;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebull;
  h ^= h >> 31;
  const double unit = static_cast<double>(h >> 11) * 0x1.0p-53;
  return static_cast<double>(base) * (0.5 + 0.5 * unit) / 1000.0;
}

/// Runs one task execution as a sequence of attempts. Each attempt first
/// polls the cancellation token, sleeps any injected latency
/// (cancellably), consults the fault plan, then runs `attempt_body`
/// with exceptions converted to Status. A failed attempt is retried while
/// the retry budget allows and the attempt produced no user-visible
/// output (`*output_started` stays false); otherwise the failure is
/// returned, prefixed with the phase and task id. A cancelled attempt
/// (Cancelled / DeadlineExceeded) is neither a failure nor retriable —
/// its status is returned as-is for the phase runner to classify.
/// `attempt_offset` shifts the attempt numbers seen by the fault plan so a
/// speculative backup execution (offset = max_task_attempts) is
/// distinguishable from the primary (offset = 0). `plan` is the resolved
/// fault plan (null = no injection).
///
/// Tracing: every attempt that reaches its fault point gets a span in
/// `trace` (category = phase name) tagged retried / failed / cancelled;
/// the successful attempt's span goes to `success_span` instead (see
/// above).
Status RunTaskWithRetry(
    const MapReduceSpec& spec, const FaultPlan* plan,
    MapReduceTaskPhase phase, int task, int attempt_offset,
    const CancellationToken* token, RetryCounters* counters,
    TraceRecorder* trace, SuccessSpan* success_span,
    const std::function<Status(int attempt, bool* output_started)>&
        attempt_body) {
  const char* phase_name = TaskPhaseName(phase);
  const bool armed = plan != nullptr && plan->armed();
  FlightRecorder* const flight =
      spec.flight != nullptr ? spec.flight : FlightRecorder::Global();
  for (int attempt = 1;; ++attempt) {
    if (token != nullptr && token->cancelled()) return token->status();
    const int attempt_number = attempt_offset + attempt;
    const bool tracing = trace != nullptr && trace->enabled();
    const double span_start = tracing ? trace->NowSeconds() : 0;
    auto record_attempt = [&](TraceOutcome outcome, std::string detail) {
      trace->RecordSpan(phase_name,
                        std::string(phase_name) + " t" + std::to_string(task),
                        span_start, trace->NowSeconds(), task,
                        attempt_number, outcome, std::move(detail));
    };
    bool output_started = false;
    Status status;
    if (armed) {
      const double delay =
          plan->TaskSlowdownSeconds(phase_name, task, attempt_number);
      if (delay > 0 && !InterruptibleSleep(delay, token)) {
        // Cancelled inside the injected delay: the attempt was already in
        // flight, so it still gets a span.
        if (tracing) {
          record_attempt(TraceOutcome::kCancelled,
                         token->status().message());
        }
        return token->status();
      }
      status = plan->OnTaskAttempt(phase_name, task, attempt_number);
    }
    if (status.ok()) {
      try {
        status = attempt_body(attempt_number, &output_started);
      } catch (const std::exception& e) {
        status = Status::Internal(std::string("uncaught exception: ") +
                                  e.what());
      } catch (...) {
        status = Status::Internal("uncaught non-std exception");
      }
    }
    if (status.ok()) {
      if (tracing && success_span != nullptr) {
        *success_span = SuccessSpan{true, attempt_number, span_start,
                                    trace->NowSeconds()};
      }
      return status;
    }
    if (IsCancellation(status)) {
      if (tracing) {
        record_attempt(TraceOutcome::kCancelled, status.message());
      }
      return status;
    }
    {
      std::unique_lock<std::mutex> lock(counters->mu);
      ++counters->failures;
    }
    TaskFailedCounter(phase)->Increment();
    const bool budget_left = attempt < spec.max_task_attempts;
    if (output_started || !budget_left) {
      if (tracing) record_attempt(TraceOutcome::kFailed, status.message());
      if (flight->enabled()) {
        flight->Record("task", "task-failed", task, attempt_number,
                       std::string(phase_name) + ": " + status.message(),
                       spec.query_label);
      }
      std::string msg = std::string(TaskPhaseName(phase)) + " task " +
                        std::to_string(task) + " failed after " +
                        std::to_string(attempt) + " attempt(s): " +
                        status.message();
      if (output_started && budget_left) {
        msg += " (not retried: reduce output already delivered)";
      }
      return Status(status.code(), std::move(msg));
    }
    if (tracing) record_attempt(TraceOutcome::kRetried, status.message());
    if (flight->enabled()) {
      flight->Record("task", "task-retried", task, attempt_number,
                     std::string(phase_name) + ": " + status.message(),
                     spec.query_label);
    }
    {
      std::unique_lock<std::mutex> lock(counters->mu);
      ++counters->retries;
    }
    TaskRetriedCounter(phase)->Increment();
    const double backoff =
        RetryBackoffSeconds(spec, phase, task, attempt_number);
    if (backoff > 0 && !InterruptibleSleep(backoff, token)) {
      return token->status();
    }
  }
}

/// Per-phase straggler-resilience accounting, merged into
/// MapReduceMetrics by Run().
struct PhaseStats {
  int64_t speculative_attempts = 0;
  int64_t speculative_wins = 0;
  int64_t cancelled_attempts = 0;
  double cpu_seconds = 0;  // summed over every execution, losers included
  double attempt_p50_seconds = 0;
  double attempt_max_seconds = 0;
  /// Duration digest of every execution that ran to natural completion
  /// (the population behind the p50/max above); merged into the metrics'
  /// per-phase attempt digests.
  QuantileSketch attempt_durations;
  /// Per task: the execution (0 = primary, 1 = backup) whose results are
  /// installed. Always set for every task when the phase succeeds.
  std::vector<int> winner_exec;
};

/// Executes one phase's tasks on the pool with retries, cooperative
/// cancellation, an optional job deadline, and optional speculative
/// backup executions.
///
/// Life cycle of a task: its primary execution is submitted up front;
/// while it runs, the coordinator (the Run() caller thread) may launch
/// one backup execution if the speculation policy fires. The first
/// execution to complete successfully resolves the task and cancels its
/// sibling; a task with no execution left running and no success
/// resolves as failed. The phase returns only after *every* launched
/// execution has finished (losers are cancelled cooperatively and
/// drained), so phase-local state can be torn down safely.
class PhaseRunner {
 public:
  /// Runs one attempt of `(task, exec)`; called through the retry loop.
  /// `attempt` is the fault-plan attempt number (offset by the execution,
  /// see RunTaskWithRetry) so bodies can consult per-attempt faults.
  using AttemptBody = std::function<Status(
      int task, int exec, int attempt, const CancellationToken* token,
      bool* output_started)>;

  PhaseRunner(const MapReduceSpec& spec, const FaultPlan* plan,
              MapReduceTaskPhase phase, int num_tasks, ThreadPool* pool,
              const CancellationToken* job_token, RetryCounters* counters,
              TraceRecorder* trace)
      : spec_(spec),
        plan_(plan),
        phase_(phase),
        num_tasks_(num_tasks),
        pool_(pool),
        counters_(counters),
        trace_(trace),
        phase_token_(job_token) {
    tasks_.reserve(static_cast<size_t>(num_tasks));
    for (int t = 0; t < num_tasks; ++t) {
      tasks_.push_back(std::make_unique<TaskState>());
    }
  }

  /// The reduce output-ownership gate for `task`: the execution id that
  /// has delivered (or is delivering) groups, -1 while none has. A
  /// successful compare-exchange from -1 is the only way to start
  /// delivering; losers observe the claim and abort.
  std::atomic<int>& output_owner(int task) {
    return tasks_[static_cast<size_t>(task)]->output_owner;
  }

  /// Admission control: before running, every execution reserves
  /// `projected_bytes(task)` from `budget` (blocking, cancellably) and
  /// releases it when it finishes — so concurrent executions, speculation
  /// backups included, queue instead of overcommitting memory. Call
  /// before Run(); either argument may be null/empty (no admission).
  void set_admission(MemoryBudget* budget,
                     std::function<int64_t(int)> projected_bytes) {
    budget_ = budget;
    projected_bytes_ = std::move(projected_bytes);
  }

  Status Run(const AttemptBody& body, PhaseStats* out) {
    body_ = &body;
    stats_.winner_exec.assign(static_cast<size_t>(num_tasks_), -1);
    if (spec_.progress != nullptr) {
      spec_.progress->BeginPhase(TaskPhaseName(phase_), num_tasks_);
    }
    const bool tracing = trace_ != nullptr && trace_->enabled();
    const double phase_span_start = tracing ? trace_->NowSeconds() : 0;
    {
      std::unique_lock<std::mutex> lock(mu_);
      for (int t = 0; t < num_tasks_; ++t) LaunchLocked(t, 0);
    }
    // The coordinator only needs to wake on a timer when there is a
    // policy to evaluate (speculation) or a clock to watch (deadline /
    // external cancel); otherwise task completions drive it entirely.
    const bool poll = spec_.speculative_execution ||
                      spec_.deadline_seconds > 0 || spec_.cancel != nullptr;
    std::unique_lock<std::mutex> lock(mu_);
    while (resolved_ < num_tasks_ || in_flight_ > 0) {
      if (poll) {
        cv_.wait_for(lock, std::chrono::milliseconds(2));
        // Polling the chain is what trips an expired deadline even when
        // every worker is buried in non-cooperative user code.
        phase_token_.cancelled();
        MaybeLaunchBackupsLocked();
      } else {
        cv_.wait(lock);
      }
    }
    if (attempt_sketch_.count() > 0) {
      stats_.attempt_p50_seconds = attempt_sketch_.Quantile(0.5);
      stats_.attempt_max_seconds = attempt_sketch_.Max();
    }
    stats_.attempt_durations = attempt_sketch_;
    if (tracing) {
      trace_->RecordSpan("phase", TaskPhaseName(phase_), phase_span_start,
                         trace_->NowSeconds(), /*task=*/-1, /*attempt=*/0,
                         TraceOutcome::kNone,
                         "tasks=" + std::to_string(num_tasks_));
    }
    *out = std::move(stats_);
    if (!first_failure_.ok()) {
      if (IsCancellation(first_failure_)) {
        // Cancellation statuses bubble up without task context; add the
        // phase so "deadline exceeded" names where the job died.
        return Status(first_failure_.code(),
                      std::string(TaskPhaseName(phase_)) +
                          " phase: " + first_failure_.message());
      }
      return first_failure_;
    }
    return Status::OK();
  }

 private:
  struct TaskState {
    bool resolved = false;
    bool backup_launched = false;
    int launched = 0;
    int finished = 0;
    bool started[2] = {false, false};
    std::chrono::steady_clock::time_point start_time[2];
    std::unique_ptr<CancellationToken> token[2];
    std::atomic<int> output_owner{-1};
    Status failure;  // first non-cancellation failure among executions
  };

  void LaunchLocked(int t, int e) {
    TaskState& task = *tasks_[static_cast<size_t>(t)];
    task.token[e] = std::make_unique<CancellationToken>(&phase_token_);
    ++task.launched;
    ++in_flight_;
    if (e == 1) {
      task.backup_launched = true;
      ++stats_.speculative_attempts;
    }
    pool_->Submit([this, t, e] { Execute(t, e); });
  }

  void Execute(int t, int e) {
    TaskState& task = *tasks_[static_cast<size_t>(t)];
    CancellationToken* token = task.token[e].get();
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (task.resolved || token->cancelled()) {
        // Dequeued after the race (or the phase) was already decided:
        // never ran, so it is not a cancelled *attempt*.
        Status skip = task.resolved ? Status::Cancelled("task already resolved")
                                    : token->status();
        FinishLocked(t, e, std::move(skip), /*ran=*/false, 0.0);
        return;
      }
    }
    // Admission: reserve the projected footprint before touching memory,
    // queueing while the budget is full. Done before `started` is set so
    // an execution parked in the admission queue does not look like a
    // straggler to the speculation policy. A reservation that can never
    // fit fails the execution with the budget's descriptive status; a
    // cancellation (deadline, lost race) while waiting unparks promptly.
    const bool tracing = trace_ != nullptr && trace_->enabled();
    const int64_t admission =
        budget_ != nullptr && projected_bytes_ ? projected_bytes_(t) : 0;
    if (admission > 0) {
      const double wait_start = tracing ? trace_->NowSeconds() : 0;
      Status s = budget_->Reserve(admission, token);
      if (tracing) {
        trace_->RecordSpan("memory", "admission", wait_start,
                           trace_->NowSeconds(), t, /*attempt=*/0,
                           TraceOutcome::kNone,
                           "bytes=" + std::to_string(admission));
      }
      if (!s.ok()) {
        std::unique_lock<std::mutex> lock(mu_);
        FinishLocked(t, e, std::move(s), /*ran=*/false, 0.0);
        return;
      }
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (task.resolved || token->cancelled()) {
        if (admission > 0) budget_->Release(admission);
        Status skip = task.resolved ? Status::Cancelled("task already resolved")
                                    : token->status();
        FinishLocked(t, e, std::move(skip), /*ran=*/false, 0.0);
        return;
      }
      task.started[e] = true;
      task.start_time[e] = std::chrono::steady_clock::now();
    }
    const auto start = std::chrono::steady_clock::now();
    SuccessSpan success_span;
    Status s = RunTaskWithRetry(
        spec_, plan_, phase_, t,
        /*attempt_offset=*/e * spec_.max_task_attempts,
        token, counters_, trace_, &success_span,
        [&](int attempt, bool* output_started) {
          return (*body_)(t, e, attempt, token, output_started);
        });
    const double seconds = SecondsSince(start);
    if (admission > 0) budget_->Release(admission);
    const bool succeeded = s.ok();
    std::unique_lock<std::mutex> lock(mu_);
    FinishLocked(t, e, std::move(s), /*ran=*/true, seconds);
    if (succeeded && success_span.valid) {
      // Only now is the race settled: a success that did not win its
      // task is a speculation loser whose output was discarded.
      const bool won = stats_.winner_exec[static_cast<size_t>(t)] == e;
      const TraceOutcome outcome =
          !won ? TraceOutcome::kCancelled
               : (e == 1 ? TraceOutcome::kSpeculativeWin : TraceOutcome::kOk);
      trace_->RecordSpan(TaskPhaseName(phase_),
                         std::string(TaskPhaseName(phase_)) + " t" +
                             std::to_string(t),
                         success_span.start_seconds, success_span.end_seconds,
                         t, success_span.attempt, outcome);
    }
  }

  void FinishLocked(int t, int e, Status s, bool ran, double seconds) {
    TaskState& task = *tasks_[static_cast<size_t>(t)];
    ++task.finished;
    --in_flight_;
    if (ran) {
      stats_.cpu_seconds += seconds;
      if (!IsCancellation(s)) attempt_sketch_.Add(seconds);
    }
    if (s.ok()) {
      if (!task.resolved) {
        // First successful execution wins the task.
        task.resolved = true;
        ++resolved_;
        stats_.winner_exec[static_cast<size_t>(t)] = e;
        if (spec_.progress != nullptr) {
          spec_.progress->TaskFinished(TaskPhaseName(phase_));
        }
        completed_sketch_.Add(seconds);
        if (e == 1) ++stats_.speculative_wins;
        for (int other = 0; other < 2; ++other) {
          if (other != e && task.token[other] != nullptr) {
            task.token[other]->Cancel();
          }
        }
      } else if (ran) {
        // Completed after the task was already won: a speculation loser
        // whose output is discarded.
        ++stats_.cancelled_attempts;
      }
    } else if (IsCancellation(s)) {
      if (ran) ++stats_.cancelled_attempts;
      if (!task.resolved && task.finished == task.launched) {
        // Every execution of this task is gone and none succeeded: the
        // task dies with its first real failure, or with the
        // cancellation reason (deadline, external cancel) if none.
        task.resolved = true;
        ++resolved_;
        if (first_failure_.ok()) {
          first_failure_ = !task.failure.ok() ? task.failure : std::move(s);
          phase_token_.Cancel();
        }
      }
    } else {
      // Terminal (non-cancellation) failure of this execution. The
      // sibling execution, if any is still running, may yet win the task
      // — unless this execution had claimed reduce output ownership, in
      // which case nothing can ever deliver and the task is doomed.
      if (task.failure.ok()) task.failure = std::move(s);
      if (task.output_owner.load(std::memory_order_acquire) == e) {
        for (int other = 0; other < 2; ++other) {
          if (other != e && task.token[other] != nullptr) {
            task.token[other]->Cancel();
          }
        }
      }
      if (!task.resolved && task.finished == task.launched) {
        task.resolved = true;
        ++resolved_;
        if (first_failure_.ok()) {
          first_failure_ = task.failure;
          // Fail-fast: abandon the phase's remaining work.
          phase_token_.Cancel();
        }
      }
    }
    cv_.notify_all();
  }

  /// Speculation policy, evaluated by the coordinator each poll tick:
  /// once enough tasks have completed to establish a median execution
  /// duration, any task whose single running execution has exceeded the
  /// straggler threshold gets one backup. Reduce tasks that have started
  /// delivering output are ineligible (the terminality rule); the
  /// output-ownership gate makes the unavoidable check-then-launch race
  /// harmless.
  void MaybeLaunchBackupsLocked() {
    if (!spec_.speculative_execution) return;
    if (!first_failure_.ok() || phase_token_.cancelled()) return;
    const int completed = static_cast<int>(completed_sketch_.count());
    const int needed = std::max<int>(
        1, static_cast<int>(std::ceil(spec_.speculation_min_completed_fraction *
                                      num_tasks_)));
    if (completed < needed) return;
    const double median = completed_sketch_.Quantile(0.5);
    const double threshold =
        std::max(spec_.speculation_latency_multiple * median,
                 spec_.speculation_min_runtime_seconds);
    const auto now = std::chrono::steady_clock::now();
    for (int t = 0; t < num_tasks_; ++t) {
      TaskState& task = *tasks_[static_cast<size_t>(t)];
      if (task.resolved || task.backup_launched || task.launched != 1) {
        continue;
      }
      if (!task.started[0]) continue;  // queued, not straggling
      if (phase_ == MapReduceTaskPhase::kReduce &&
          task.output_owner.load(std::memory_order_acquire) != -1) {
        continue;
      }
      const double elapsed =
          std::chrono::duration<double>(now - task.start_time[0]).count();
      if (elapsed <= threshold) continue;
      LaunchLocked(t, 1);
    }
  }

  const MapReduceSpec& spec_;
  const FaultPlan* plan_;  // resolved fault plan, may be null
  MapReduceTaskPhase phase_;
  int num_tasks_;
  ThreadPool* pool_;
  RetryCounters* counters_;
  TraceRecorder* trace_;  // not owned; engine-resolved, never null
  const AttemptBody* body_ = nullptr;
  MemoryBudget* budget_ = nullptr;  // not owned; null = no admission
  std::function<int64_t(int)> projected_bytes_;
  /// Cancelled on the first terminal task failure (fail-fast) — and, via
  /// its parent (the job token), by the deadline or the caller.
  CancellationToken phase_token_;

  std::mutex mu_;  // guards everything below
  std::condition_variable cv_;
  std::vector<std::unique_ptr<TaskState>> tasks_;
  QuantileSketch completed_sketch_;  // winning-execution durations
  QuantileSketch attempt_sketch_;    // every ran-to-completion execution
  int resolved_ = 0;
  int in_flight_ = 0;
  Status first_failure_;
  PhaseStats stats_;
};

}  // namespace

uint64_t PartitionHash(const int64_t* key, int width) {
  uint64_t h = 1469598103934665603ULL;
  for (int i = 0; i < width; ++i) {
    h ^= static_cast<uint64_t>(key[i]);
    h *= 1099511628211ULL;
  }
  // fmix64 finalizer (MurmurHash3): the plain FNV tail disperses high bits
  // well but leaves the low bits weakly mixed, which skews `hash % m`
  // badly for power-of-two reducer counts on sequential keys.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

void PartitionHashColumns(const int64_t* const* key_cols, int key_width,
                          int64_t n, uint64_t* out) {
  std::fill(out, out + n, uint64_t{1469598103934665603ULL});
  for (int c = 0; c < key_width; ++c) {
    const int64_t* col = key_cols[c];
    for (int64_t i = 0; i < n; ++i) {
      uint64_t h = out[i];
      h ^= static_cast<uint64_t>(col[i]);
      h *= 1099511628211ULL;
      out[i] = h;
    }
  }
  for (int64_t i = 0; i < n; ++i) {
    uint64_t h = out[i];
    h ^= h >> 33;
    h *= 0xff51afd7ed558ccdULL;
    h ^= h >> 33;
    h *= 0xc4ceb9fe1a85ec53ULL;
    h ^= h >> 33;
    out[i] = h;
  }
}

Emitter::Emitter(int num_reducers, int key_width, int value_width)
    : key_width_(key_width),
      value_width_(value_width),
      buffers_(static_cast<size_t>(num_reducers)),
      spilled_(static_cast<size_t>(num_reducers)) {}

Emitter::~Emitter() {
  DropSpillFile();
  if (budget_ != nullptr) budget_->Release(extra_reserved_bytes_);
}

void Emitter::ConfigureMemory(MemoryBudget* budget,
                              int64_t base_reserved_bytes,
                              int64_t spill_threshold_bytes,
                              std::string spill_dir, TraceRecorder* trace,
                              FlightRecorder* flight,
                              std::string query_label) {
  budget_ = budget;
  base_reserved_bytes_ = base_reserved_bytes;
  spill_threshold_bytes_ = spill_threshold_bytes;
  spill_dir_ = spill_dir.empty()
                   ? std::filesystem::temp_directory_path().string()
                   : std::move(spill_dir);
  trace_ = trace;
  flight_ = flight;
  query_label_ = std::move(query_label);
}

void Emitter::Emit(const int64_t* key, const int64_t* value) {
  if (throttle_seconds_per_record_ > 0) {
    // Per-record latency injection: accumulate the owed delay and sleep
    // (cancellably) in ~millisecond batches so short sleeps don't round
    // up to scheduler quanta record by record.
    throttle_owed_seconds_ += throttle_seconds_per_record_;
    if (throttle_owed_seconds_ >= 1e-3) {
      const double owed = throttle_owed_seconds_;
      throttle_owed_seconds_ = 0;
      InterruptibleSleep(owed, cancel_);
      // A cancelled sleep needs no special handling here: map_fn observes
      // the token on its next poll and the attempt unwinds normally.
    }
  }
  size_t reducer =
      static_cast<size_t>(PartitionHash(key, key_width_) % buffers_.size());
  std::vector<int64_t>& buf = buffers_[reducer];
  buf.insert(buf.end(), key, key + key_width_);
  buf.insert(buf.end(), value, value + value_width_);
  ++emitted_;
  AccountEmittedPair();
}

void Emitter::AccountEmittedPair() {
  buffered_bytes_ +=
      static_cast<int64_t>(key_width_ + value_width_) * sizeof(int64_t);
  if (spill_threshold_bytes_ > 0 &&
      buffered_bytes_ >= spill_threshold_bytes_) {
    SpillBuffers();
    return;
  }
  // No spill configured (or not yet due): account growth against the
  // budget in chunks beyond what the engine pre-reserved for this task.
  while (budget_ != nullptr && memory_status_.ok() &&
         buffered_bytes_ > base_reserved_bytes_ + extra_reserved_bytes_) {
    if (budget_->TryReserve(kEmitterAccountChunkBytes)) {
      extra_reserved_bytes_ += kEmitterAccountChunkBytes;
    } else if (spill_threshold_bytes_ > 0) {
      SpillBuffers();
      break;
    } else {
      memory_status_ = Status::Internal(
          "memory budget exhausted by map output with spilling disabled; "
          "set emitter_spill_threshold_bytes (or raise "
          "memory_budget_bytes)");
    }
  }
}

void Emitter::EmitBatch(const int64_t* const* key_cols, const int64_t* values,
                        int64_t n) {
  if (n <= 0) return;
  if (throttle_seconds_per_record_ > 0) {
    // Same owed-delay batching as Emit, charged for the whole batch.
    throttle_owed_seconds_ += throttle_seconds_per_record_ * n;
    if (throttle_owed_seconds_ >= 1e-3) {
      const double owed = throttle_owed_seconds_;
      throttle_owed_seconds_ = 0;
      InterruptibleSleep(owed, cancel_);
    }
  }
  hash_scratch_.resize(static_cast<size_t>(n));
  PartitionHashColumns(key_cols, key_width_, n, hash_scratch_.data());
  for (int64_t i = 0; i < n; ++i) {
    std::vector<int64_t>& buf =
        buffers_[static_cast<size_t>(hash_scratch_[i] % buffers_.size())];
    for (int c = 0; c < key_width_; ++c) buf.push_back(key_cols[c][i]);
    if (value_width_ > 0) {
      const int64_t* v = values + i * value_width_;
      buf.insert(buf.end(), v, v + value_width_);
    }
    ++emitted_;
    // Per-pair accounting keeps spill timing identical to the row path,
    // so even spill-run boundaries match Emit() exactly.
    AccountEmittedPair();
  }
}

void Emitter::SpillBuffers() {
  if (buffered_bytes_ == 0 || !memory_status_.ok()) return;
  const int pair_width = key_width_ + value_width_;
  const int64_t runs_before = spilled_runs_;
  const int64_t records_before = spilled_records_;
  static std::atomic<uint64_t> spill_counter{0};
  if (spill_file_.empty()) {
    spill_file_ = SpillFilePath(spill_dir_, "casm_emit",
                                spill_counter.fetch_add(1), ".spill");
  }
  for (size_t r = 0; r < buffers_.size(); ++r) {
    if (buffers_[r].empty()) continue;
    // Runs are written unsorted, in emission order: GatherReducer replays
    // them oldest first, so the reducer's stable sort sees exactly the
    // sequence an unspilled buffer would have given it.
    const std::vector<int64_t>& run = buffers_[r];
    Result<int64_t> offset = AppendRun(spill_file_, run);
    if (!offset.ok()) {
      memory_status_ = offset.status();
      return;
    }
    spilled_[r].push_back(
        SpillSegment{offset.value(), static_cast<int64_t>(run.size())});
    ++spilled_runs_;
    spilled_records_ += static_cast<int64_t>(run.size()) / pair_width;
    buffers_[r] = std::vector<int64_t>();  // release the buffer's capacity
  }
  buffered_bytes_ = 0;
  if (budget_ != nullptr) budget_->Release(extra_reserved_bytes_);
  extra_reserved_bytes_ = 0;
  if (spilled_runs_ > runs_before) {
    const int64_t runs = spilled_runs_ - runs_before;
    const int64_t records = spilled_records_ - records_before;
    const std::string detail =
        "runs=" + std::to_string(runs) + " records=" + std::to_string(records);
    if (trace_ != nullptr && trace_->enabled()) {
      trace_->RecordInstant("memory", "emitter-spill", /*task=*/-1, detail);
    }
    if (flight_ != nullptr && flight_->enabled()) {
      flight_->Record("memory", "emitter-spill", /*task=*/-1, /*attempt=*/0,
                      detail, query_label_);
    }
    MetricsRegistry* const registry = MetricsRegistry::Global();
    if (registry->enabled()) {
      static MetricsRegistry::Counter* const spills = registry->GetCounter(
          "casm_emitter_spills_total",
          "Map-side spill events (each writes >= 1 run to disk).");
      static MetricsRegistry::Counter* const spilled_records =
          registry->GetCounter(
              "casm_emitter_spilled_records_total",
              "Pairs written to disk by map-side emitter spills.");
      static MetricsRegistry::Counter* const spilled_bytes =
          registry->GetCounter(
              "casm_emitter_spilled_bytes_total",
              "Bytes written to disk by map-side emitter spills.");
      spills->IncrementAlways(1);
      spilled_records->IncrementAlways(records);
      spilled_bytes->IncrementAlways(records * pair_width *
                                     static_cast<int64_t>(sizeof(int64_t)));
    }
  }
}

Status Emitter::FinalSpill() {
  if (spill_threshold_bytes_ > 0) SpillBuffers();
  return memory_status_;
}

void Emitter::DropSpillFile() {
  if (!spill_file_.empty()) std::remove(spill_file_.c_str());
  spill_file_.clear();
  for (std::vector<SpillSegment>& segs : spilled_) segs.clear();
}

void Emitter::Clear() {
  emitted_ = 0;
  // Release the buffers' capacity, not just their size: a retried fat
  // task must not keep holding its worst-case footprint, and the bytes go
  // back to the budget immediately.
  for (std::vector<int64_t>& buf : buffers_) buf = std::vector<int64_t>();
  buffered_bytes_ = 0;
  DropSpillFile();
  if (budget_ != nullptr) budget_->Release(extra_reserved_bytes_);
  extra_reserved_bytes_ = 0;
  memory_status_ = Status::OK();
}

int64_t Emitter::PairsForReducer(int reducer) const {
  const size_t r = static_cast<size_t>(reducer);
  const int pair_width = key_width_ + value_width_;
  int64_t int64s = static_cast<int64_t>(buffers_[r].size());
  for (const SpillSegment& seg : spilled_[r]) int64s += seg.count_int64s;
  return int64s / pair_width;
}

Status Emitter::GatherReducer(int reducer, std::vector<int64_t>* out) const {
  const size_t r = static_cast<size_t>(reducer);
  for (const SpillSegment& seg : spilled_[r]) {
    Result<std::vector<int64_t>> run =
        ReadRun(spill_file_, seg.offset_int64s, seg.count_int64s);
    CASM_RETURN_IF_ERROR(run.status());
    out->insert(out->end(), run.value().begin(), run.value().end());
  }
  out->insert(out->end(), buffers_[r].begin(), buffers_[r].end());
  return Status::OK();
}

void GroupView::CopyValuesInto(std::vector<int64_t>* out) const {
  const int value_width = pair_width_ - key_width_;
  out->resize(static_cast<size_t>(count_) * static_cast<size_t>(value_width));
  int64_t* dst = out->data();
  for (int64_t i = 0; i < count_; ++i, dst += value_width) {
    std::copy_n(value(i), value_width, dst);
  }
}

MapReduceEngine::MapReduceEngine(int num_threads) {
  if (num_threads <= 0) {
    num_threads = static_cast<int>(std::thread::hardware_concurrency());
    if (num_threads <= 0) num_threads = 4;
  }
  num_threads_ = num_threads;
}

MapReduceEngine::~MapReduceEngine() = default;

Result<MapReduceMetrics> MapReduceEngine::Run(const MapReduceSpec& spec,
                                              int64_t num_input_rows) {
  if (spec.num_mappers < 1 || spec.num_reducers < 1) {
    return Status::InvalidArgument("need at least one mapper and reducer");
  }
  if (spec.key_width < 1 || spec.value_width < 0) {
    return Status::InvalidArgument("bad key/value width");
  }
  if (!spec.map_fn) return Status::InvalidArgument("map_fn is required");
  if (!spec.map_only && !spec.skip_reduce && !spec.reduce_fn) {
    return Status::InvalidArgument(
        "reduce_fn is required unless map_only/skip_reduce");
  }
  if (spec.max_task_attempts < 1) {
    return Status::InvalidArgument("max_task_attempts must be >= 1");
  }
  if (spec.memory_budget_bytes < 0 || spec.emitter_spill_threshold_bytes < 0) {
    return Status::InvalidArgument(
        "memory_budget_bytes / emitter_spill_threshold_bytes must be >= 0");
  }
  if (spec.speculative_execution) {
    if (spec.speculation_latency_multiple < 1.0) {
      return Status::InvalidArgument(
          "speculation_latency_multiple must be >= 1");
    }
    if (spec.speculation_min_completed_fraction < 0.0 ||
        spec.speculation_min_completed_fraction > 1.0) {
      return Status::InvalidArgument(
          "speculation_min_completed_fraction must be in [0, 1]");
    }
  }
  // The spec's fault plan, else the process-global CASM_FAULT_PLAN one.
  const FaultPlan* plan = spec.fault_plan;
  if (plan == nullptr) {
    CASM_ASSIGN_OR_RETURN(plan, FaultPlan::FromEnv());
  }

  const int num_mappers = spec.num_mappers;
  const int num_reducers = spec.num_reducers;
  const int pair_width = spec.key_width + spec.value_width;
  const int key_width = spec.key_width;

  // The job's full pair order — key order, then the optional secondary
  // value order — applied by the reducer's one stable sort.
  const std::function<bool(const int64_t*, const int64_t*)> pair_less =
      [&spec, key_width](const int64_t* px, const int64_t* py) {
        int c = CompareKeys(px, py, key_width);
        if (c != 0) return c < 0;
        if (spec.value_less) {
          return spec.value_less(px + key_width, py + key_width);
        }
        return false;
      };

  MapReduceMetrics metrics;
  metrics.input_rows = num_input_rows;
  metrics.reducer_pairs.assign(static_cast<size_t>(num_reducers), 0);
  metrics.reducer_groups.assign(static_cast<size_t>(num_reducers), 0);

  auto total_start = std::chrono::steady_clock::now();
  // One pool per engine, shared across sequential Run() calls.
  if (pool_ == nullptr) pool_ = std::make_unique<ThreadPool>(num_threads_);
  ThreadPool& pool = *pool_;

  // Run tracing: resolve the recorder once (the global one answers a
  // single relaxed load when CASM_TRACE is unset) and freeze `tracing`
  // for the run. The pool's queue-latency hook is installed only while a
  // traced run is in flight and removed on every exit path.
  TraceRecorder* const trace =
      spec.trace != nullptr ? spec.trace : TraceRecorder::Global();
  const bool tracing = trace->enabled();
  const double trace_run_start = tracing ? trace->NowSeconds() : 0;
  const int64_t trace_dropped_at_start = tracing ? trace->dropped_events() : 0;
  // Live observability (see MapReduceSpec): the flight recorder and the
  // progress tracker. Both cost one relaxed load per would-be event when
  // their environment switches are off.
  FlightRecorder* const flight =
      spec.flight != nullptr ? spec.flight : FlightRecorder::Global();
  ProgressTracker* const progress = spec.progress;
  if (tracing) {
    pool.set_queue_latency_hook([trace](double queued_seconds) {
      const double now = trace->NowSeconds();
      trace->RecordSpan("pool", "queue-wait", now - queued_seconds, now);
    });
  }
  struct TraceGuard {
    ThreadPool* pool;
    bool active;
    ~TraceGuard() {
      if (active) pool->set_queue_latency_hook({});
    }
  } trace_guard{&pool, tracing};

  // The job token chains the caller's token (external cancellation) and
  // the wall-clock deadline; every execution token descends from it.
  CancellationToken job_token(spec.cancel);
  if (spec.deadline_seconds > 0) {
    job_token.set_deadline(
        total_start +
        std::chrono::duration_cast<std::chrono::steady_clock::duration>(
            std::chrono::duration<double>(spec.deadline_seconds)));
  }

  RetryCounters counters;

  const bool plan_armed = plan != nullptr && plan->armed();

  // ---- Memory accounting and admission control (DESIGN.md §8). One
  // budget spans the whole run: emitters account their buffered pairs
  // against it and every task execution reserves a projected footprint
  // before starting. With no capacity the budget never blocks and
  // peak_tracked_bytes measures the unbounded run.
  MemoryBudget budget(spec.memory_budget_bytes);
  // Bridge admission waits into the live registry (the budget cannot
  // depend on obs/ itself). Instruments resolve lazily so a disabled
  // registry never pays the lookup.
  budget.set_wait_observer([](double waited_seconds) {
    MetricsRegistry* const registry = MetricsRegistry::Global();
    if (!registry->enabled()) return;
    static MetricsRegistry::Counter* const waits = registry->GetCounter(
        "casm_admission_waits_total",
        "Memory reservations that had to queue for admission.");
    static MetricsRegistry::Histogram* const wait_seconds =
        registry->GetHistogram(
            "casm_admission_wait_seconds",
            "Seconds individual reservations spent queued for admission.");
    waits->IncrementAlways(1);
    wait_seconds->ObserveAlways(waited_seconds);
  });
  int64_t spill_threshold = spec.emitter_spill_threshold_bytes;
  if (spill_threshold <= 0 && spec.memory_budget_bytes > 0) {
    // A bounded budget without an explicit threshold derives one: map
    // outputs must reach disk before the shuffle, or completed mappers
    // would pin the budget and starve reduce admission.
    spill_threshold = std::max<int64_t>(
        4096, spec.memory_budget_bytes / (4 * num_threads_));
  }
  // A spilling map task's footprint stays under the threshold plus one
  // accounting chunk of slack; a non-spilling one reserves nothing up
  // front and accounts its growth incrementally instead.
  const int64_t map_reservation =
      spill_threshold > 0 ? spill_threshold + kEmitterAccountChunkBytes : 0;

  // ---- Map phase: each mapper processes one input split, with failed
  // attempts replayed from a cleared Emitter. Under speculation a task
  // may run two executions; each emits into its own buffers and only the
  // winner's are shuffled, so losers never contribute output.
  auto map_start = std::chrono::steady_clock::now();
  std::vector<std::array<std::unique_ptr<Emitter>, 2>> emitters(
      static_cast<size_t>(num_mappers));
  const int64_t rows_per_mapper =
      (num_input_rows + num_mappers - 1) / num_mappers;
  PhaseRunner::AttemptBody map_body =
      [&](int m, int exec, int attempt, const CancellationToken* token,
          bool* /*output_started*/) -> Status {
    auto& slot = emitters[static_cast<size_t>(m)][static_cast<size_t>(exec)];
    if (slot == nullptr) {
      slot = std::make_unique<Emitter>(num_reducers, spec.key_width,
                                       spec.value_width);
      slot->ConfigureMemory(&budget, map_reservation, spill_threshold,
                            spec.spill_dir, tracing ? trace : nullptr,
                            flight, spec.query_label);
    }
    Emitter* emitter = slot.get();
    // Clear-and-replay: drop any pairs (and spilled runs) a failed
    // attempt produced.
    emitter->Clear();
    emitter->cancel_ = token;
    emitter->set_record_throttle(
        plan_armed ? plan->RecordThrottleSeconds("map", m, attempt) : 0);
    if (spec.split_fn) {
      for (const auto& [begin, end] : spec.split_fn(m)) {
        if (token->cancelled()) return token->status();
        if (begin < end) spec.map_fn(begin, end, emitter);
      }
    } else {
      int64_t begin = static_cast<int64_t>(m) * rows_per_mapper;
      int64_t end = std::min(num_input_rows, begin + rows_per_mapper);
      if (begin < end) spec.map_fn(begin, end, emitter);
    }
    // A spill failure (or budget exhaustion with spilling disabled) fails
    // the attempt with the emitter's descriptive status.
    CASM_RETURN_IF_ERROR(emitter->memory_status());
    // A cancelled attempt's output is discarded even if map_fn ran to
    // completion: the winner has already been installed.
    if (token->cancelled()) return token->status();
    // Final spill: a completed map task's output goes to disk so the task
    // holds no memory while it waits for shuffle (no-op unless spilling
    // is configured).
    return emitter->FinalSpill();
  };
  PhaseStats map_stats;
  {
    PhaseRunner runner(spec, plan, MapReduceTaskPhase::kMap, num_mappers,
                       &pool, &job_token, &counters, trace);
    runner.set_admission(&budget,
                         [map_reservation](int) { return map_reservation; });
    Status map_status = runner.Run(map_body, &map_stats);
    metrics.task_failures = counters.failures;
    metrics.task_retries = counters.retries;
    metrics.speculative_attempts += map_stats.speculative_attempts;
    metrics.speculative_wins += map_stats.speculative_wins;
    metrics.cancelled_attempts += map_stats.cancelled_attempts;
    metrics.map_attempt_p50_seconds = map_stats.attempt_p50_seconds;
    metrics.map_attempt_max_seconds = map_stats.attempt_max_seconds;
    metrics.map_attempt_digest = map_stats.attempt_durations;
    if (!map_status.ok()) return map_status;
  }
  metrics.map_seconds = SecondsSince(map_start);
  metrics.map_cpu_seconds = map_stats.cpu_seconds;

  // Shuffle reads each map task's *winning* emitter.
  std::vector<const Emitter*> map_out(static_cast<size_t>(num_mappers));
  for (int m = 0; m < num_mappers; ++m) {
    const int winner = map_stats.winner_exec[static_cast<size_t>(m)];
    CASM_CHECK_GE(winner, 0);
    map_out[static_cast<size_t>(m)] =
        emitters[static_cast<size_t>(m)][static_cast<size_t>(winner)].get();
  }

  for (const Emitter* e : map_out) metrics.emitted_pairs += e->emitted();
  for (int r = 0; r < num_reducers; ++r) {
    int64_t pairs = 0;
    // Buffered and spilled pairs combined: a spilling run's workload
    // distribution is identical to an in-memory run's.
    for (const Emitter* e : map_out) pairs += e->PairsForReducer(r);
    metrics.reducer_pairs[static_cast<size_t>(r)] = pairs;
  }

  // Seed the reduce-phase ETA from the cluster cost model: once the
  // shuffle counts are known, the modeled per-reducer costs stand in for
  // an observed rate until the first reduce task actually completes.
  if (progress != nullptr && !spec.map_only) {
    const ClusterCostParams model = ClusterCostParams::Default();
    double modeled = 0;
    for (int64_t pairs : metrics.reducer_pairs) {
      modeled += ReducerCostSeconds(static_cast<double>(pairs), model);
    }
    progress->SetModeledRemainingSeconds(
        "reduce", modeled / std::max(1, num_threads_));
  }

  // Budget accounting for the metrics: spill activity counts every
  // execution (it measures I/O actually performed, losers included).
  auto finalize_memory_metrics = [&] {
    metrics.peak_tracked_bytes = budget.peak_used();
    metrics.admission_waits = budget.admission_waits();
    metrics.admission_wait_seconds = budget.admission_wait_seconds();
    metrics.emitter_spilled_runs = 0;
    metrics.emitter_spilled_records = 0;
    for (const auto& slots : emitters) {
      for (const auto& slot : slots) {
        if (slot == nullptr) continue;
        metrics.emitter_spilled_runs += slot->spilled_runs();
        metrics.emitter_spilled_records += slot->spilled_records();
      }
    }
    metrics.emitter_spilled_bytes = metrics.emitter_spilled_records *
                                    pair_width *
                                    static_cast<int64_t>(sizeof(int64_t));
  };

  // On success: close the run's "job" span and digest this run's events
  // into the human-readable report carried by the metrics. The snapshot
  // copies only events ending after the run started, because the global
  // recorder accumulates across runs in one process.
  auto finalize_trace = [&] {
    if (!tracing) return;
    trace->RecordSpan("job", "mr-run", trace_run_start, trace->NowSeconds(),
                      /*task=*/-1, /*attempt=*/0, TraceOutcome::kNone,
                      "mappers=" + std::to_string(num_mappers) +
                          " reducers=" + std::to_string(num_reducers));
    RunReport report = BuildRunReport(trace->Snapshot(trace_run_start));
    // Spans dropped *during this run* at the recorder's per-thread cap:
    // the delta against the run-start count, so one process running many
    // jobs does not re-report old losses.
    report.trace_dropped_events =
        trace->dropped_events() - trace_dropped_at_start;
    if (report.trace_dropped_events > 0) {
      MetricsRegistry* const registry = MetricsRegistry::Global();
      if (registry->enabled()) {
        registry
            ->GetCounter("casm_trace_dropped_spans_total",
                         "Trace spans dropped at the per-thread event cap.")
            ->IncrementAlways(report.trace_dropped_events);
      }
    }
    metrics.run_report_summary = report.Summary();
  };

  if (spec.map_only) {
    metrics.deadline_exceeded = spec.deadline_seconds > 0 &&
                                job_token.cancelled();
    finalize_memory_metrics();
    finalize_trace();
    metrics.total_seconds = SecondsSince(total_start);
    return metrics;
  }

  // ---- Shuffle + framework sort + reduce, per (virtual) reducer. Each
  // reduce task is a retriable attempt until its first group is
  // delivered; under speculation the output-ownership gate guarantees at
  // most one execution of a task ever delivers.
  auto reduce_phase_start = std::chrono::steady_clock::now();
  struct ReduceExecStats {
    double sort_seconds = 0;
    double reduce_seconds = 0;
    int64_t groups = 0;
  };
  std::vector<std::array<ReduceExecStats, 2>> reduce_exec_stats(
      static_cast<size_t>(num_reducers));

  PhaseRunner runner(spec, plan, MapReduceTaskPhase::kReduce, num_reducers,
                     &pool, &job_token, &counters, trace);
  // Reduce admission: the gather buffer plus the sorted copy, both sized
  // by the reducer's exact pair count (known after the map phase). The
  // local evaluation behind reduce_fn is the user's to account.
  runner.set_admission(&budget, [&metrics, pair_width](int r) {
    return 2 * metrics.reducer_pairs[static_cast<size_t>(r)] * pair_width *
           static_cast<int64_t>(sizeof(int64_t));
  });
  PhaseRunner::AttemptBody reduce_body =
      [&](int r, int exec, int attempt, const CancellationToken* token,
          bool* output_started) -> Status {
    ReduceExecStats& rs =
        reduce_exec_stats[static_cast<size_t>(r)][static_cast<size_t>(exec)];
    const double throttle_per_record =
        plan_armed ? plan->RecordThrottleSeconds("reduce", r, attempt) : 0;
    auto sort_start = std::chrono::steady_clock::now();
    // Gather this reducer's pairs from every (winning) mapper, in mapper
    // order and each mapper's emission order (spilled runs replayed from
    // disk, then the in-memory buffer), and sort them once by key (and by
    // value within key if a secondary order is given). The sort is
    // stable, so a key group's values arrive in the same order whether
    // or not any mapper spilled.
    std::vector<int64_t> pairs;
    pairs.reserve(static_cast<size_t>(
        metrics.reducer_pairs[static_cast<size_t>(r)] * pair_width));
    for (const Emitter* e : map_out) {
      CASM_RETURN_IF_ERROR(e->GatherReducer(r, &pairs));
    }
    if (token->cancelled()) return token->status();
    const std::vector<int64_t> sorted =
        SortRecords(std::move(pairs), pair_width, pair_less);
    const int64_t count = static_cast<int64_t>(sorted.size()) / pair_width;
    rs.sort_seconds += SecondsSince(sort_start);
    if (token->cancelled()) return token->status();

    // Walk key groups.
    auto reduce_start = std::chrono::steady_clock::now();
    int64_t groups = 0;
    int64_t begin = 0;
    bool owns_output = false;
    double throttle_owed = 0;
    while (begin < count) {
      if (token->cancelled()) {
        rs.reduce_seconds += SecondsSince(reduce_start);
        return token->status();
      }
      int64_t end = begin + 1;
      const int64_t* first = sorted.data() + begin * pair_width;
      while (end < count &&
             CompareKeys(first, sorted.data() + end * pair_width,
                         key_width) == 0) {
        ++end;
      }
      ++groups;
      if (throttle_per_record > 0) {
        // Per-record latency injection, charged per grouped pair and
        // slept in ~millisecond batches (see Emitter::Emit).
        throttle_owed += throttle_per_record * static_cast<double>(end - begin);
        if (throttle_owed >= 1e-3) {
          const double owed = throttle_owed;
          throttle_owed = 0;
          if (!InterruptibleSleep(owed, token)) {
            rs.reduce_seconds += SecondsSince(reduce_start);
            return token->status();
          }
        }
      }
      if (!spec.skip_reduce) {
        if (!owns_output) {
          // Claim the task's output before the first delivery; exactly
          // one execution of a task can ever succeed here, so a
          // speculation loser can never duplicate user-visible output.
          int expected = -1;
          if (!runner.output_owner(r).compare_exchange_strong(
                  expected, exec, std::memory_order_acq_rel)) {
            rs.reduce_seconds += SecondsSince(reduce_start);
            return Status::Cancelled(
                "lost reduce output ownership to a concurrent attempt");
          }
          owns_output = true;
        }
        // Delivered output cannot be rolled back: from here on a failure
        // of this attempt is terminal (no replay).
        *output_started = true;
        GroupView group(first, end - begin, spec.key_width, spec.value_width,
                        token);
        spec.reduce_fn(r, group);
      }
      begin = end;
    }
    if (!spec.skip_reduce && spec.reduce_finish_fn) {
      if (token->cancelled()) {
        rs.reduce_seconds += SecondsSince(reduce_start);
        return token->status();
      }
      // A task with no groups claims its output here, through the same
      // gate, so a speculating pair still flushes exactly once.
      int expected = -1;
      if (!owns_output && !runner.output_owner(r).compare_exchange_strong(
                              expected, exec, std::memory_order_acq_rel)) {
        rs.reduce_seconds += SecondsSince(reduce_start);
        return Status::Cancelled(
            "lost reduce output ownership to a concurrent attempt");
      }
      *output_started = true;
      spec.reduce_finish_fn(r);
    }
    rs.groups = groups;
    rs.reduce_seconds += SecondsSince(reduce_start);
    return Status::OK();
  };
  PhaseStats reduce_stats;
  Status reduce_status = runner.Run(reduce_body, &reduce_stats);
  metrics.task_failures = counters.failures;
  metrics.task_retries = counters.retries;
  metrics.speculative_attempts += reduce_stats.speculative_attempts;
  metrics.speculative_wins += reduce_stats.speculative_wins;
  metrics.cancelled_attempts += reduce_stats.cancelled_attempts;
  metrics.reduce_attempt_p50_seconds = reduce_stats.attempt_p50_seconds;
  metrics.reduce_attempt_max_seconds = reduce_stats.attempt_max_seconds;
  metrics.reduce_attempt_digest = reduce_stats.attempt_durations;
  if (!reduce_status.ok()) return reduce_status;
  if (!spec.skip_reduce && spec.job_commit_fn) spec.job_commit_fn();
  metrics.reduce_phase_wall_seconds = SecondsSince(reduce_phase_start);
  for (int r = 0; r < num_reducers; ++r) {
    const int winner = reduce_stats.winner_exec[static_cast<size_t>(r)];
    CASM_CHECK_GE(winner, 0);
    const ReduceExecStats& rs =
        reduce_exec_stats[static_cast<size_t>(r)][static_cast<size_t>(winner)];
    metrics.shuffle_sort_seconds += rs.sort_seconds;
    metrics.reduce_seconds += rs.reduce_seconds;
    metrics.reducer_groups[static_cast<size_t>(r)] = rs.groups;
  }
  metrics.deadline_exceeded =
      spec.deadline_seconds > 0 && job_token.cancelled();
  finalize_memory_metrics();
  finalize_trace();
  metrics.total_seconds = SecondsSince(total_start);
  return metrics;
}

}  // namespace casm
