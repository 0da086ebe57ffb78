// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Shared harness utilities for the figure-reproduction benchmarks.
//
// Each fig4*_ binary regenerates one panel of the paper's Figure 4. The
// in-process engine executes the real dataflow and measures the exact
// per-reducer workload distribution; the response time of the paper's
// cluster (100 machines, up to two tasks each) is then computed by the
// calibrated cluster model (mr/cluster_model.h) — see DESIGN.md for why
// this substitution preserves the figures' shapes. Wall-clock times of
// this process are also printed for reference.
//
// Scaling: datasets default to bench-friendly sizes; set CASM_BENCH_SCALE
// (a positive float) to scale row counts, e.g. CASM_BENCH_SCALE=10 for a
// longer, higher-fidelity run.
//
// Fault injection: every harness honors CASM_FAULT_PLAN (common/fault.h).
// For example, CASM_FAULT_PLAN='task_crash=*:0:1' fails the first attempt
// of every job's first map and reduce task; results are unchanged because
// the engine replays the failed attempts. See bench/fig_straggler.cc for
// the straggler and speculation experiment.

#ifndef CASM_BENCH_BENCH_UTIL_H_
#define CASM_BENCH_BENCH_UTIL_H_

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "core/optimizer.h"
#include "core/parallel_evaluator.h"
#include "mr/cluster_model.h"
#include "queries/paper_data.h"
#include "queries/paper_queries.h"

namespace casm::bench {

/// Row-count scale factor from CASM_BENCH_SCALE (default 1.0).
inline double Scale() {
  const char* env = std::getenv("CASM_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double scale = std::atof(env);
  return scale > 0 ? scale : 1.0;
}

inline int64_t ScaledRows(int64_t base) {
  return static_cast<int64_t>(static_cast<double>(base) * Scale());
}

/// The paper's testbed: 100 machines, up to two map/reduce tasks each.
struct ClusterConfig {
  int num_mappers = 50;
  int num_reducers = 50;
};

struct RunOutcome {
  ParallelEvalResult result;
  ExecutionPlan plan;
  double modeled_seconds = 0;
};

/// Runs a specific plan, returning engine metrics and the modeled cluster
/// response time. Aborts on failure (benchmarks only run supported
/// configurations).
inline RunOutcome RunPlan(const Workflow& wf, const Table& table,
                          const ExecutionPlan& plan,
                          const ClusterConfig& cluster,
                          ParallelEvalPhase phase = ParallelEvalPhase::kFull,
                          const LocalAggOptions& local_agg = {}) {
  ParallelEvalOptions eval;
  eval.num_mappers = cluster.num_mappers;
  eval.num_reducers = cluster.num_reducers;
  eval.phase = phase;
  eval.local_agg = local_agg;
  Result<ParallelEvalResult> result = EvaluateParallel(wf, table, plan, eval);
  CASM_CHECK(result.ok()) << result.status().ToString();
  RunOutcome outcome{std::move(result).value(), plan, 0};
  outcome.modeled_seconds = ModeledResponseSeconds(
      outcome.result.metrics, cluster.num_mappers,
      ClusterCostParams::Default());
  return outcome;
}

/// Optimizes a plan for (wf, table) and runs it.
inline RunOutcome RunQuery(const Workflow& wf, const Table& table,
                           const ClusterConfig& cluster,
                           OptimizerOptions opt_overrides = {},
                           ParallelEvalPhase phase = ParallelEvalPhase::kFull) {
  OptimizerOptions opts = opt_overrides;
  opts.num_reducers = cluster.num_reducers;
  opts.num_records = table.num_rows();
  Result<ExecutionPlan> plan = OptimizePlan(wf, opts);
  CASM_CHECK(plan.ok()) << plan.status().ToString();
  return RunPlan(wf, table, plan.value(), cluster, phase);
}

/// Prints the standard benchmark header.
inline void PrintHeader(const char* figure, const char* description) {
  std::printf("# %s — %s\n", figure, description);
  std::printf("# scale=%.2f (set CASM_BENCH_SCALE to change)\n", Scale());
}

/// One emitted JSON row: a label plus numeric fields.
struct JsonRow {
  std::string label;
  std::vector<std::pair<std::string, double>> fields;
};

/// Appends the per-phase attempt-duration histogram of `metrics` (count
/// and p50/p90/p99/max seconds over every attempt, from the engine's
/// merged digests) to a JSON row's fields. Phases with no recorded
/// attempts contribute nothing.
inline void AppendAttemptHistogram(const MapReduceMetrics& metrics,
                                   JsonRow* row) {
  auto append = [row](const char* phase, const QuantileSketch& d) {
    if (d.count() == 0) return;
    const std::string p(phase);
    row->fields.emplace_back(p + "_attempts", static_cast<double>(d.count()));
    row->fields.emplace_back(p + "_attempt_p50_seconds", d.Quantile(0.5));
    row->fields.emplace_back(p + "_attempt_p90_seconds", d.Quantile(0.9));
    row->fields.emplace_back(p + "_attempt_p99_seconds", d.Quantile(0.99));
    row->fields.emplace_back(p + "_attempt_max_seconds", d.Max());
  };
  append("map", metrics.map_attempt_digest);
  append("reduce", metrics.reduce_attempt_digest);
}

/// Appends the run's resource-pressure counters to a JSON row. The
/// perf-regression gate (scripts/check_bench.py) treats these field
/// suffixes as *ceilings*: a fresh run may not exceed the committed
/// baseline value, so a default-configuration bench that silently starts
/// spilling or queueing on the memory budget trips CI.
inline void AppendResourceMetrics(const MapReduceMetrics& metrics,
                                  JsonRow* row) {
  row->fields.emplace_back(
      "emitter_spilled_bytes",
      static_cast<double>(metrics.emitter_spilled_bytes));
  row->fields.emplace_back("budget_admission_waits",
                           static_cast<double>(metrics.admission_waits));
}

/// Writes `rows` to <dir>/<name>.json when CASM_BENCH_JSON names a
/// directory (CI's bench-smoke job uploads these as workflow artifacts);
/// no-op otherwise. Labels and keys must not need JSON escaping.
inline void MaybeWriteJson(const std::string& name,
                           const std::vector<JsonRow>& rows) {
  const char* dir = std::getenv("CASM_BENCH_JSON");
  if (dir == nullptr || *dir == '\0') return;
  const std::string path = std::string(dir) + "/" + name + ".json";
  std::FILE* f = std::fopen(path.c_str(), "w");
  CASM_CHECK(f != nullptr) << "cannot write " << path;
  std::fprintf(f, "{\"figure\": \"%s\", \"scale\": %.6g, \"rows\": [",
               name.c_str(), Scale());
  for (size_t i = 0; i < rows.size(); ++i) {
    std::fprintf(f, "%s\n  {\"label\": \"%s\"", i == 0 ? "" : ",",
                 rows[i].label.c_str());
    for (const auto& [key, value] : rows[i].fields) {
      std::fprintf(f, ", \"%s\": %.17g", key.c_str(), value);
    }
    std::fprintf(f, "}");
  }
  std::fprintf(f, "\n]}\n");
  std::fclose(f);
  std::printf("# wrote %s\n", path.c_str());
}

}  // namespace casm::bench

#endif  // CASM_BENCH_BENCH_UTIL_H_
