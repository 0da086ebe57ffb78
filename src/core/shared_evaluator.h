// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Shared-scan / shared-shuffle evaluation of several workflows over one
// table in a single MapReduce pass — the multi-query optimizer's
// execution primitive (src/svc). The map side scans and redistributes
// the table exactly once under one distribution plan; the reduce side
// evaluates every member workflow against each block's rows and fans the
// results back out per query.
//
// Determinism contract: a shared run and a solo EvaluateParallel run are
// the same code — the one evaluation pass in parallel_evaluator.cc, with k
// members or one. For a plan with `early_aggregation == false` and
// `combined_sort == false` the map side is member-independent, so every
// reducer block sees the same row vector as in a solo run of any member
// under the same plan and mapper count; each member then evaluates the
// block's rows read-only, in shuffle order. Per-query results are
// therefore BIT-IDENTICAL to `EvaluateParallel(member, table, plan, ...)`
// — tolerance 0.0, asserted by tests/parallel_eval_test.cc, tests/svc_test.cc
// and fig_service's self-check. Comparing against a *different* plan is
// out of contract: float aggregation order follows block structure.
//
// A plan is acceptable here iff it is feasible for every member, which
// ConcatWorkflows + the optimizer guarantee by construction: feasibility
// is per measure, so any plan feasible for the concatenated workflow is
// feasible for each member.

#ifndef CASM_CORE_SHARED_EVALUATOR_H_
#define CASM_CORE_SHARED_EVALUATOR_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "core/parallel_evaluator.h"
#include "core/plan.h"
#include "data/table.h"
#include "local/measure_table.h"
#include "measure/workflow.h"
#include "mr/metrics.h"

namespace casm {

/// One member of a shared batch.
struct SharedQuery {
  /// Not owned; must outlive the call. All members must share one
  /// SchemaPtr (they scan the same table).
  const Workflow* workflow = nullptr;
  /// Per-query metrics label (casm_query_* attribution). Empty skips
  /// per-query publication for this member.
  std::string label;
};

/// Per-member slice of a shared run: exactly what a solo
/// ParallelEvalResult would carry for this query.
struct SharedQueryResult {
  MeasureResultSet results;
  LocalEvalStats local_stats;
  int64_t blocks_evaluated = 0;
  int64_t results_filtered = 0;
};

struct SharedEvalResult {
  /// One entry per member, in input order.
  std::vector<SharedQueryResult> queries;
  /// Metrics of the single shared job (one scan, one shuffle). Published
  /// once under options.query_label — per-member casm_query_* counters
  /// receive only each query's own reduce-side work, so sums across
  /// queries never double-count the shared pass (mr/metrics.h,
  /// PublishSharedQueryMetrics).
  MapReduceMetrics metrics;
};

/// Evaluates every member workflow over `table` in one MapReduce pass
/// under `plan`. Requirements beyond EvaluateParallel's:
///   * at least one member; all members share one schema instance;
///   * plan.early_aggregation == false (raw-record redistribution is
///     what makes one shuffle serve heterogeneous workflows);
///   * plan.combined_sort == false (the framework sort order would be
///     member-specific);
///   * options.phase == kFull; options.checkpoint disabled (the service
///     falls back to solo evaluation for checkpointed queries).
/// options.query_label names the shared batch in metrics/trace output.
Result<SharedEvalResult> EvaluateParallelShared(
    const std::vector<SharedQuery>& queries, const Table& table,
    const ExecutionPlan& plan, const ParallelEvalOptions& options);

}  // namespace casm

#endif  // CASM_CORE_SHARED_EVALUATOR_H_
