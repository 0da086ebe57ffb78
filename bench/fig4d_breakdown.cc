// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Figure 4(d) — Evaluation cost breakdown: cumulative cost of Map-Only
// (fetch + key generation), MR (+ shuffle and framework sort), Sort
// (+ in-reducer local sort) and Sort+Eval (full evaluation). Paper shape:
// Map-Only is cheap (which is what makes run-time sampling viable, §V);
// the MR -> Sort gap is the big one (the duplicated local sort §III-D can
// eliminate); Sort -> Sort+Eval is small (scan evaluation is cheap).

#include <algorithm>
#include <cmath>

#include "bench/bench_util.h"
#include "core/key_derivation.h"

int main() {
  using namespace casm;
  using namespace casm::bench;

  PrintHeader("Figure 4(d)", "cost breakdown: Map-Only / MR / Sort / Sort+Eval");
  ClusterConfig cluster;
  const int64_t rows = ScaledRows(300000);
  Table table = PaperUniformTable(rows, 31337);
  Workflow wf = MakePaperQuery(PaperQuery::kQ5);

  OptimizerOptions opts;
  opts.num_reducers = cluster.num_reducers;
  opts.num_records = rows;
  ExecutionPlan plan = OptimizePlan(wf, opts).value();
  std::printf("# plan: %s\n", plan.ToString(*wf.schema()).c_str());

  struct Stage {
    const char* name;
    ParallelEvalPhase phase;
  };
  std::printf("%-12s%14s%16s\n", "stage", "modeled_s", "wall_clock_s");
  for (Stage stage : {Stage{"Map-Only", ParallelEvalPhase::kMapOnly},
                      Stage{"MR", ParallelEvalPhase::kShuffleOnly},
                      Stage{"Sort", ParallelEvalPhase::kLocalSortOnly},
                      Stage{"Sort+Eval", ParallelEvalPhase::kFull}}) {
    RunOutcome outcome = RunPlan(wf, table, plan, cluster, stage.phase);
    // The modeled time of a partial stage counts only the phases it ran.
    const MapReduceMetrics& m = outcome.result.metrics;
    ClusterCostParams params = ClusterCostParams::Default();
    double modeled = params.startup_seconds +
                     static_cast<double>(m.input_rows) /
                         cluster.num_mappers * params.map_seconds_per_record;
    if (stage.phase != ParallelEvalPhase::kMapOnly) {
      double worst = 0;
      for (int64_t pairs : m.reducer_pairs) {
        double p = static_cast<double>(pairs);
        double log2p = p > 2 ? std::log2(p) : 1.0;
        double cost = p * (params.transfer_seconds_per_record +
                           params.sort_seconds_per_record_per_log2 * log2p);
        if (stage.phase == ParallelEvalPhase::kLocalSortOnly ||
            stage.phase == ParallelEvalPhase::kFull) {
          // In-reducer re-sort of each block costs another comparison pass.
          cost += p * params.sort_seconds_per_record_per_log2 * log2p;
        }
        if (stage.phase == ParallelEvalPhase::kFull) {
          cost += p * params.eval_seconds_per_record;
        }
        worst = std::max(worst, cost);
      }
      modeled += worst;
    }
    std::printf("%-12s%14.3f%16.3f\n", stage.name, modeled,
                m.total_seconds);
    std::fflush(stdout);
  }
  std::printf(
      "# combined-sort optimization (§III-D) removes the in-reducer re-sort:\n");
  // Both arms pin sort/scan: by default the separate-sorts arm's unsorted
  // blocks take the morsel path, which never sorts, and the column would
  // no longer show the re-sort that combined sort removes.
  LocalAggOptions sortscan;
  sortscan.engine = LocalAggEngine::kSortScan;
  ExecutionPlan combined = plan;
  combined.combined_sort = true;
  RunOutcome with =
      RunPlan(wf, table, combined, cluster, ParallelEvalPhase::kFull, sortscan);
  RunOutcome without =
      RunPlan(wf, table, plan, cluster, ParallelEvalPhase::kFull, sortscan);
  std::printf("%-24s local_sort_s=%.3f wall=%.3f\n", "separate sorts",
              without.result.local_stats.sort_seconds,
              without.result.metrics.total_seconds);
  std::printf("%-24s local_sort_s=%.3f wall=%.3f\n", "combined sort",
              with.result.local_stats.sort_seconds,
              with.result.metrics.total_seconds);
  CASM_CHECK(without.result.local_stats.sort_seconds > 0)
      << "separate-sorts arm recorded no in-reducer sort time";
  return 0;
}
