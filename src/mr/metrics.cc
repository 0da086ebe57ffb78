// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "mr/metrics.h"

#include <algorithm>

#include "obs/metrics.h"

namespace casm {

namespace {

/// One `casm_query_<field>_total` counter family and the MapReduceMetrics
/// field it publishes. The one list of the additive counters: Accumulate()
/// sums exactly these fields and PublishQueryMetrics() adds exactly these.
struct QueryCounter {
  int64_t MapReduceMetrics::*field;
  const char* name;
  const char* help;
};

#define QUERY_COUNTER(field, help) \
  { &MapReduceMetrics::field, "casm_query_" #field "_total", help }
constexpr QueryCounter kQueryCounters[] = {
    QUERY_COUNTER(input_rows, "Input rows consumed by the query"),
    QUERY_COUNTER(emitted_pairs,
                  "Key/value pairs emitted by the query's mappers"),
    QUERY_COUNTER(emitter_spilled_runs,
                  "Map-side emitter runs spilled to disk"),
    QUERY_COUNTER(emitter_spilled_records, "Map-side pairs spilled to disk"),
    QUERY_COUNTER(emitter_spilled_bytes,
                  "Bytes of map-side pairs spilled to disk"),
    QUERY_COUNTER(admission_waits,
                  "Task launches that queued for memory-budget admission"),
    QUERY_COUNTER(task_failures,
                  "Task attempts that failed (faults, non-OK statuses, exceptions)"),
    QUERY_COUNTER(task_retries, "Task attempts re-run after a failure"),
    QUERY_COUNTER(speculative_attempts, "Speculative backup attempts launched"),
    QUERY_COUNTER(speculative_wins,
                  "Speculative attempts that beat the primary"),
    QUERY_COUNTER(cancelled_attempts,
                  "Attempts cancelled mid-flight or after losing the race"),
    QUERY_COUNTER(checkpoint_jobs_restored,
                  "Jobs restored from the checkpoint log instead of recomputed"),
    QUERY_COUNTER(checkpoint_bytes_written,
                  "Checkpoint payload bytes committed"),
    QUERY_COUNTER(checkpoint_bytes_restored,
                  "Checkpoint payload bytes restored"),
    QUERY_COUNTER(checkpoint_commit_failures, "Checkpoint commits that failed"),
    QUERY_COUNTER(checkpoint_commits_skipped,
                  "Checkpoint commits skipped by the open circuit breaker"),
    QUERY_COUNTER(checkpoint_restore_failures,
                  "Checkpoint restores that failed verification"),
    QUERY_COUNTER(dfs_io_retries,
                  "DFS replica operations replayed after backoff"),
    QUERY_COUNTER(dfs_write_failovers,
                  "DFS replicas placed off their preferred node"),
    QUERY_COUNTER(dfs_corrupt_replicas,
                  "DFS replica checksum mismatches observed"),
    QUERY_COUNTER(dfs_repaired_replicas,
                  "DFS replicas rewritten from a good copy"),
    QUERY_COUNTER(dfs_under_replicated_blocks,
                  "DFS blocks observed below their replication target"),
};
#undef QUERY_COUNTER

}  // namespace

int64_t MapReduceMetrics::MaxReducerPairs() const {
  int64_t max_pairs = 0;
  for (int64_t p : reducer_pairs) max_pairs = std::max(max_pairs, p);
  return max_pairs;
}

int64_t MapReduceMetrics::TotalGroups() const {
  int64_t total = 0;
  for (int64_t g : reducer_groups) total += g;
  return total;
}

double MapReduceMetrics::ReplicationFactor() const {
  return input_rows == 0 ? 0
                         : static_cast<double>(emitted_pairs) /
                               static_cast<double>(input_rows);
}

std::string MapReduceMetrics::ToString() const {
  std::string out;
  out += "input_rows=" + std::to_string(input_rows);
  out += " emitted_pairs=" + std::to_string(emitted_pairs);
  out += " replication=" + std::to_string(ReplicationFactor());
  out += " reducers=" + std::to_string(reducer_pairs.size());
  out += " max_reducer_pairs=" + std::to_string(MaxReducerPairs());
  out += " groups=" + std::to_string(TotalGroups());
  if (task_failures > 0 || task_retries > 0) {
    out += " task_failures=" + std::to_string(task_failures);
    out += " task_retries=" + std::to_string(task_retries);
  }
  if (speculative_attempts > 0 || cancelled_attempts > 0) {
    out += " speculative_attempts=" + std::to_string(speculative_attempts);
    out += " speculative_wins=" + std::to_string(speculative_wins);
    out += " cancelled_attempts=" + std::to_string(cancelled_attempts);
  }
  if (deadline_exceeded) out += " deadline_exceeded=1";
  if (checkpoint_jobs_restored > 0 || checkpoint_bytes_written > 0 ||
      checkpoint_bytes_restored > 0) {
    out += " checkpoint_jobs_restored=" +
           std::to_string(checkpoint_jobs_restored);
    out +=
        " checkpoint_bytes_written=" + std::to_string(checkpoint_bytes_written);
    out += " checkpoint_bytes_restored=" +
           std::to_string(checkpoint_bytes_restored);
  }
  if (checkpoint_commit_failures > 0 || checkpoint_commits_skipped > 0 ||
      checkpoint_restore_failures > 0) {
    out += " checkpoint_commit_failures=" +
           std::to_string(checkpoint_commit_failures);
    out += " checkpoint_commits_skipped=" +
           std::to_string(checkpoint_commits_skipped);
    out += " checkpoint_restore_failures=" +
           std::to_string(checkpoint_restore_failures);
  }
  if (checkpoint_degraded) out += " checkpoint_degraded=1";
  if (dfs_io_retries > 0 || dfs_write_failovers > 0 ||
      dfs_corrupt_replicas > 0 || dfs_repaired_replicas > 0 ||
      dfs_under_replicated_blocks > 0) {
    out += " dfs_io_retries=" + std::to_string(dfs_io_retries);
    out += " dfs_failovers=" + std::to_string(dfs_write_failovers);
    out += " dfs_corrupt_replicas=" + std::to_string(dfs_corrupt_replicas);
    out += " dfs_repaired_replicas=" + std::to_string(dfs_repaired_replicas);
    out += " dfs_under_replicated_blocks=" +
           std::to_string(dfs_under_replicated_blocks);
  }
  out += " peak_tracked_bytes=" + std::to_string(peak_tracked_bytes);
  if (emitter_spilled_runs > 0) {
    out += " emitter_spilled_runs=" + std::to_string(emitter_spilled_runs);
    out +=
        " emitter_spilled_records=" + std::to_string(emitter_spilled_records);
    out += " emitter_spilled_bytes=" + std::to_string(emitter_spilled_bytes);
  }
  if (admission_waits > 0) {
    out += " admission_waits=" + std::to_string(admission_waits);
    out += " admission_wait_s=" + std::to_string(admission_wait_seconds);
  }
  out += " map_attempt_p50_s=" + std::to_string(map_attempt_p50_seconds);
  out += " map_attempt_max_s=" + std::to_string(map_attempt_max_seconds);
  out += " reduce_attempt_p50_s=" + std::to_string(reduce_attempt_p50_seconds);
  out += " reduce_attempt_max_s=" + std::to_string(reduce_attempt_max_seconds);
  out += " map_wall_s=" + std::to_string(map_seconds);
  out += " map_cpu_s=" + std::to_string(map_cpu_seconds);
  out += " shuffle_sort_cpu_s=" + std::to_string(shuffle_sort_seconds);
  out += " reduce_cpu_s=" + std::to_string(reduce_seconds);
  out += " reduce_phase_wall_s=" + std::to_string(reduce_phase_wall_seconds);
  out += " total_s=" + std::to_string(total_seconds);
  auto histogram_line = [](const char* phase, const QuantileSketch& d) {
    std::string line = std::string("\n  ") + phase + " attempts: n=" +
                       std::to_string(d.count());
    line += " p50=" + std::to_string(d.Quantile(0.5));
    line += " p90=" + std::to_string(d.Quantile(0.9));
    line += " p99=" + std::to_string(d.Quantile(0.99));
    line += " max=" + std::to_string(d.Max());
    return line;
  };
  if (map_attempt_digest.count() > 0) {
    out += histogram_line("map", map_attempt_digest);
  }
  if (reduce_attempt_digest.count() > 0) {
    out += histogram_line("reduce", reduce_attempt_digest);
  }
  if (!run_report_summary.empty()) out += "\n" + run_report_summary;
  return out;
}

void MapReduceMetrics::Accumulate(const MapReduceMetrics& other) {
  if (reducer_pairs.size() < other.reducer_pairs.size()) {
    reducer_pairs.resize(other.reducer_pairs.size(), 0);
    reducer_groups.resize(other.reducer_groups.size(), 0);
  }
  for (size_t i = 0; i < other.reducer_pairs.size(); ++i) {
    reducer_pairs[i] += other.reducer_pairs[i];
  }
  for (size_t i = 0; i < other.reducer_groups.size(); ++i) {
    reducer_groups[i] += other.reducer_groups[i];
  }
  for (const QueryCounter& c : kQueryCounters) {
    this->*c.field += other.*c.field;
  }
  // Sequential jobs do not hold their budgets concurrently, so the
  // sequence's peak is the max over jobs, not a sum.
  peak_tracked_bytes = std::max(peak_tracked_bytes, other.peak_tracked_bytes);
  admission_wait_seconds += other.admission_wait_seconds;
  deadline_exceeded = deadline_exceeded || other.deadline_exceeded;
  checkpoint_degraded = checkpoint_degraded || other.checkpoint_degraded;
  // Merge the attempt-duration digests and recompute the scalar
  // quantiles from the union, so a sequence's p50 is the median over
  // every attempt in the sequence — not the max of per-job medians.
  map_attempt_digest.Merge(other.map_attempt_digest);
  reduce_attempt_digest.Merge(other.reduce_attempt_digest);
  map_attempt_p50_seconds = map_attempt_digest.Quantile(0.5);
  map_attempt_max_seconds = map_attempt_digest.Max();
  reduce_attempt_p50_seconds = reduce_attempt_digest.Quantile(0.5);
  reduce_attempt_max_seconds = reduce_attempt_digest.Max();
  if (run_report_summary.empty()) {
    run_report_summary = other.run_report_summary;
  }
  map_seconds += other.map_seconds;
  map_cpu_seconds += other.map_cpu_seconds;
  shuffle_sort_seconds += other.shuffle_sort_seconds;
  reduce_seconds += other.reduce_seconds;
  reduce_phase_wall_seconds += other.reduce_phase_wall_seconds;
  total_seconds += other.total_seconds;
}

void PublishQueryMetrics(MetricsRegistry* registry, const std::string& query,
                         const MapReduceMetrics& metrics) {
  if (registry == nullptr || !registry->enabled()) return;
  const MetricLabels labels = {{"query", query}};
  for (const QueryCounter& c : kQueryCounters) {
    registry->GetCounter(c.name, c.help, labels)->Increment(metrics.*c.field);
  }
  // Gauges merge by their own rules in Accumulate (peak: max).
  auto gauge = [&](const char* name, const char* help, double value) {
    registry->GetGauge(name, help, labels)->Set(value);
  };
  gauge("casm_query_peak_tracked_bytes",
        "High-water mark of bytes tracked against the query's budget",
        static_cast<double>(metrics.peak_tracked_bytes));
  gauge("casm_query_admission_wait_seconds",
        "Total seconds the query's tasks waited for admission",
        metrics.admission_wait_seconds);
  gauge("casm_query_total_seconds",
        "Wall-clock seconds of the query's last run", metrics.total_seconds);
}

void PublishSharedQueryMetrics(
    MetricsRegistry* registry,
    const std::vector<SharedQueryAttribution>& queries, int batch_queries) {
  if (registry == nullptr || !registry->enabled()) return;
  for (const SharedQueryAttribution& q : queries) {
    const MetricLabels labels = {{"query", q.query}};
    registry
        ->GetCounter("casm_query_shared_jobs_total",
                     "Shared multi-query jobs this query rode in", labels)
        ->Increment(1);
    registry
        ->GetCounter("casm_query_shared_local_records_total",
                     "Rows this query's local evaluation scanned inside "
                     "shared jobs",
                     labels)
        ->Increment(q.local_records);
    registry
        ->GetCounter("casm_query_shared_result_values_total",
                     "Measure values delivered to this query by shared jobs",
                     labels)
        ->Increment(q.result_values);
    registry
        ->GetCounter("casm_query_shared_results_filtered_total",
                     "Values dropped by this query's ownership filter inside "
                     "shared jobs",
                     labels)
        ->Increment(q.results_filtered);
    registry
        ->GetGauge("casm_query_shared_local_eval_seconds",
                   "Local sort+evaluate seconds this query spent in its last "
                   "shared job",
                   labels)
        ->Set(q.local_eval_seconds);
    registry
        ->GetGauge("casm_query_shared_batch_queries",
                   "Queries in the last shared batch this query rode in",
                   labels)
        ->Set(static_cast<double>(batch_queries));
  }
}

}  // namespace casm
