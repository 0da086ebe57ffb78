// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Tests for the parallel evaluator mechanics: exactness against the
// reference evaluator on focused workflows, replication accounting,
// ownership filtering, early aggregation, combined sort, phases, error
// handling, and shared evaluation's k-member runs against solo runs.
// (Whole-paper-query exactness lives in integration_test.)

#include <optional>
#include <string>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "core/key_derivation.h"
#include "core/parallel_evaluator.h"
#include "core/shared_evaluator.h"
#include "data/generator.h"
#include "local/reference_evaluator.h"
#include "queries/paper_data.h"
#include "queries/paper_queries.h"

namespace casm {
namespace {

SchemaPtr TestSchema() {
  return MakeSchemaOrDie(
      {Hierarchy::Numeric("X", 16, {4}, {"value", "bucket"}).value(),
       Hierarchy::Numeric("T", 96, {4, 16}, {"tick", "quad", "span"})
           .value()});
}

Granularity Gran(const SchemaPtr& s, const std::string& xl,
                 const std::string& tl) {
  return Granularity::Of(*s, {{"X", xl}, {"T", tl}}).value();
}

Workflow WindowWorkflow(const SchemaPtr& schema) {
  WorkflowBuilder b(schema);
  int m1 = b.AddBasic("base", Gran(schema, "value", "tick"),
                      AggregateFn::kSum, "X");
  b.AddSourceAggregate("win", Gran(schema, "value", "tick"),
                       AggregateFn::kAvg, {b.Sibling(m1, "T", -3, 1)});
  return std::move(b).Build().value();
}

ExecutionPlan DerivedPlan(const Workflow& wf, int64_t cf) {
  ExecutionPlan plan;
  plan.key = DeriveDistributionKeys(wf).query_key;
  plan.clustering_factor = cf;
  return plan;
}

ParallelEvalOptions EvalOpts(int mappers, int reducers) {
  ParallelEvalOptions o;
  o.num_mappers = mappers;
  o.num_reducers = reducers;
  o.num_threads = 2;
  return o;
}

TEST(ParallelEvalTest, MatchesReferenceAcrossClusteringFactors) {
  SchemaPtr schema = TestSchema();
  Workflow wf = WindowWorkflow(schema);
  Table table = GenerateUniformTable(schema, 3000, 77);
  MeasureResultSet expected = EvaluateReference(wf, table);
  for (int64_t cf : {1, 2, 5, 13, 96}) {
    Result<ParallelEvalResult> result =
        EvaluateParallel(wf, table, DerivedPlan(wf, cf), EvalOpts(3, 4));
    ASSERT_TRUE(result.ok()) << "cf=" << cf << ": " << result.status();
    EXPECT_TRUE(CompareResultSets(expected, result->results, 1e-9).ok())
        << "cf=" << cf << ": "
        << CompareResultSets(expected, result->results, 1e-9).ToString();
  }
}

TEST(ParallelEvalTest, ReplicationMatchesAnnotationWidth) {
  SchemaPtr schema = TestSchema();
  Workflow wf = WindowWorkflow(schema);
  Table table = GenerateUniformTable(schema, 5000, 5);
  // Annotation (-4..+1 after derivation) has width d; replication should
  // be about (d + cf) / cf, slightly less due to domain-edge clipping.
  ExecutionPlan plan = DerivedPlan(wf, 1);
  const int64_t d = plan.AnnotationWidth();
  ASSERT_GT(d, 0);
  for (int64_t cf : {1, 2, 4}) {
    plan.clustering_factor = cf;
    Result<ParallelEvalResult> result =
        EvaluateParallel(wf, table, plan, EvalOpts(2, 3));
    ASSERT_TRUE(result.ok());
    const double expected_replication =
        static_cast<double>(d + cf) / static_cast<double>(cf);
    EXPECT_LE(result->metrics.ReplicationFactor(), expected_replication);
    EXPECT_GT(result->metrics.ReplicationFactor(),
              0.8 * expected_replication);
  }
}

TEST(ParallelEvalTest, NonOverlappingPlanHasNoReplication) {
  SchemaPtr schema = TestSchema();
  WorkflowBuilder b(schema);
  b.AddBasic("m", Gran(schema, "bucket", "quad"), AggregateFn::kSum, "X");
  Workflow wf = std::move(b).Build().value();
  Table table = GenerateUniformTable(schema, 2000, 3);
  Result<ParallelEvalResult> result =
      EvaluateParallel(wf, table, DerivedPlan(wf, 1), EvalOpts(2, 4));
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result->metrics.ReplicationFactor(), 1.0);
  EXPECT_EQ(result->results_filtered, 0);
}

TEST(ParallelEvalTest, OverlappingPlanFiltersForeignResults) {
  SchemaPtr schema = TestSchema();
  Workflow wf = WindowWorkflow(schema);
  Table table = GenerateUniformTable(schema, 3000, 9);
  Result<ParallelEvalResult> result =
      EvaluateParallel(wf, table, DerivedPlan(wf, 2), EvalOpts(2, 4));
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->results_filtered, 0);
}

TEST(ParallelEvalTest, RejectsInfeasiblePlan) {
  SchemaPtr schema = TestSchema();
  Workflow wf = WindowWorkflow(schema);
  Table table = GenerateUniformTable(schema, 100, 1);
  ExecutionPlan plan;
  plan.key =
      DistributionKey::Of(*schema, {{"X", "value", 0, 0}, {"T", "tick", 0, 0}})
          .value();
  EXPECT_FALSE(EvaluateParallel(wf, table, plan, EvalOpts(1, 1)).ok());
}

TEST(ParallelEvalTest, EarlyAggregationMatchesReference) {
  SchemaPtr schema = TestSchema();
  WorkflowBuilder b(schema);
  int m1 = b.AddBasic("sum", Gran(schema, "value", "quad"),
                      AggregateFn::kSum, "T");
  int m2 = b.AddBasic("avg", Gran(schema, "value", "quad"),
                      AggregateFn::kAvg, "X");
  b.AddExpression(
      "ratio", Gran(schema, "value", "quad"),
      Expression::Source(0) / Expression::Source(1),
      {WorkflowBuilder::Self(m1), WorkflowBuilder::Self(m2)});
  b.AddSourceAggregate("up", Gran(schema, "bucket", "span"),
                       AggregateFn::kAvg, {WorkflowBuilder::ChildParent(m1)});
  Workflow wf = std::move(b).Build().value();
  Table table = GenerateUniformTable(schema, 4000, 31);

  MeasureResultSet expected = EvaluateReference(wf, table);
  ExecutionPlan plan = DerivedPlan(wf, 1);
  plan.early_aggregation = true;
  Result<ParallelEvalResult> result =
      EvaluateParallel(wf, table, plan, EvalOpts(3, 4));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(CompareResultSets(expected, result->results, 1e-9).ok())
      << CompareResultSets(expected, result->results, 1e-9).ToString();
  // Pre-aggregation must shrink the shuffle: fewer pairs than records.
  EXPECT_LT(result->metrics.emitted_pairs, table.num_rows());
}

TEST(ParallelEvalTest, EarlyAggregationWithOverlapMatchesReference) {
  SchemaPtr schema = TestSchema();
  WorkflowBuilder b(schema);
  int m1 = b.AddBasic("sum", Gran(schema, "value", "quad"),
                      AggregateFn::kSum, "X");
  b.AddSourceAggregate("win", Gran(schema, "value", "quad"),
                       AggregateFn::kAvg, {b.Sibling(m1, "T", -2, 0)});
  Workflow wf = std::move(b).Build().value();
  Table table = GenerateUniformTable(schema, 3000, 8);
  MeasureResultSet expected = EvaluateReference(wf, table);
  ExecutionPlan plan = DerivedPlan(wf, 2);
  plan.early_aggregation = true;
  Result<ParallelEvalResult> result =
      EvaluateParallel(wf, table, plan, EvalOpts(2, 3));
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(CompareResultSets(expected, result->results, 1e-9).ok())
      << CompareResultSets(expected, result->results, 1e-9).ToString();
}

TEST(ParallelEvalTest, EarlyAggregationRejectsHolisticBasics) {
  SchemaPtr schema = TestSchema();
  WorkflowBuilder b(schema);
  b.AddBasic("med", Gran(schema, "value", "quad"), AggregateFn::kMedian,
             "X");
  Workflow wf = std::move(b).Build().value();
  Table table = GenerateUniformTable(schema, 100, 2);
  ExecutionPlan plan = DerivedPlan(wf, 1);
  plan.early_aggregation = true;
  Result<ParallelEvalResult> result =
      EvaluateParallel(wf, table, plan, EvalOpts(1, 1));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParallelEvalTest, CombinedSortMatchesReference) {
  SchemaPtr schema = TestSchema();
  Workflow wf = WindowWorkflow(schema);
  Table table = GenerateUniformTable(schema, 3000, 55);
  MeasureResultSet expected = EvaluateReference(wf, table);
  ExecutionPlan plan = DerivedPlan(wf, 3);
  plan.combined_sort = true;
  Result<ParallelEvalResult> result =
      EvaluateParallel(wf, table, plan, EvalOpts(2, 4));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(CompareResultSets(expected, result->results, 1e-9).ok())
      << CompareResultSets(expected, result->results, 1e-9).ToString();
  // The reducer-side sort is skipped entirely.
  EXPECT_DOUBLE_EQ(result->local_stats.sort_seconds, 0.0);
}

TEST(ParallelEvalTest, PhasesProduceNoResultsButCountWork) {
  SchemaPtr schema = TestSchema();
  Workflow wf = WindowWorkflow(schema);
  Table table = GenerateUniformTable(schema, 1000, 6);
  for (ParallelEvalPhase phase :
       {ParallelEvalPhase::kMapOnly, ParallelEvalPhase::kShuffleOnly,
        ParallelEvalPhase::kLocalSortOnly}) {
    ParallelEvalOptions opts = EvalOpts(2, 3);
    opts.phase = phase;
    Result<ParallelEvalResult> result =
        EvaluateParallel(wf, table, DerivedPlan(wf, 2), opts);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->results.TotalResults(), 0);
    EXPECT_GT(result->metrics.emitted_pairs, 0);
  }
}

TEST(ParallelEvalTest, ManyVirtualReducersStillExact) {
  SchemaPtr schema = TestSchema();
  Workflow wf = WindowWorkflow(schema);
  Table table = GenerateUniformTable(schema, 2000, 12);
  MeasureResultSet expected = EvaluateReference(wf, table);
  Result<ParallelEvalResult> result =
      EvaluateParallel(wf, table, DerivedPlan(wf, 2), EvalOpts(4, 64));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(CompareResultSets(expected, result->results, 1e-9).ok());
  EXPECT_EQ(static_cast<int>(result->metrics.reducer_pairs.size()), 64);
}

TEST(ParallelEvalTest, ReducerShardingNeverChangesAValue) {
  // Each reduce task unions its blocks into its own shard and flushes it
  // once; how the plan's blocks fall into shards (reducer count) and which
  // threads run them must not move a single bit of the answer.
  Table table = PaperUniformTable(2500, 4242);
  for (PaperQuery query : {PaperQuery::kQ1, PaperQuery::kQ2, PaperQuery::kQ3,
                           PaperQuery::kQ4, PaperQuery::kQ5,
                           PaperQuery::kQ6}) {
    Workflow wf = MakePaperQuery(query);
    const ExecutionPlan plan = DerivedPlan(wf, 4);
    MeasureResultSet expected = EvaluateReference(wf, table);
    std::optional<MeasureResultSet> first;
    for (int reducers : {1, 3, 8, 17}) {
      for (int threads : {1, 4}) {
        ParallelEvalOptions options = EvalOpts(3, reducers);
        options.num_threads = threads;
        const std::string what = std::string(PaperQueryName(query)) +
                                 " reducers=" + std::to_string(reducers) +
                                 " threads=" + std::to_string(threads);
        Result<ParallelEvalResult> result =
            EvaluateParallel(wf, table, plan, options);
        ASSERT_TRUE(result.ok()) << what << ": " << result.status();
        Status exact = CompareResultSets(expected, result->results, 1e-9);
        EXPECT_TRUE(exact.ok()) << what << ": " << exact.ToString();
        if (!first.has_value()) {
          first = std::move(result->results);
          continue;
        }
        Status same = CompareResultSets(*first, result->results, 0.0);
        EXPECT_TRUE(same.ok()) << what << ": " << same.ToString();
      }
    }
  }
}

TEST(ParallelEvalTest, EmptyTableYieldsEmptyResults) {
  SchemaPtr schema = TestSchema();
  Workflow wf = WindowWorkflow(schema);
  Table table(schema);
  Result<ParallelEvalResult> result =
      EvaluateParallel(wf, table, DerivedPlan(wf, 2), EvalOpts(2, 2));
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->results.TotalResults(), 0);
}

TEST(ParallelEvalTest, InjectedTaskFaultsRetryToByteIdenticalResults) {
  SchemaPtr schema = TestSchema();
  Workflow wf = WindowWorkflow(schema);
  Table table = GenerateUniformTable(schema, 3000, 21);
  ExecutionPlan plan = DerivedPlan(wf, 2);

  Result<ParallelEvalResult> clean =
      EvaluateParallel(wf, table, plan, EvalOpts(3, 4));
  ASSERT_TRUE(clean.ok()) << clean.status();
  EXPECT_EQ(clean->metrics.task_retries, 0);

  FaultPlan faults;
  faults.Add(FaultPlan::TaskCrash{"map", 0, 1, 1.0, "injected mapper fault"});
  faults.Add(
      FaultPlan::TaskCrash{"reduce", 2, 1, 1.0, "injected reducer fault"});
  ParallelEvalOptions opts = EvalOpts(3, 4);
  opts.fault_plan = &faults;
  Result<ParallelEvalResult> faulty = EvaluateParallel(wf, table, plan, opts);
  ASSERT_TRUE(faulty.ok()) << faulty.status();
  EXPECT_EQ(faulty->metrics.task_failures, 2);
  EXPECT_EQ(faulty->metrics.task_retries, 2);
  EXPECT_EQ(faulty->metrics.emitted_pairs, clean->metrics.emitted_pairs);
  EXPECT_TRUE(CompareResultSets(clean->results, faulty->results, 0.0).ok())
      << CompareResultSets(clean->results, faulty->results, 0.0).ToString();
}

TEST(ParallelEvalTest, PersistentFaultWithoutRetriesFailsCleanly) {
  SchemaPtr schema = TestSchema();
  Workflow wf = WindowWorkflow(schema);
  Table table = GenerateUniformTable(schema, 1000, 4);
  ParallelEvalOptions opts = EvalOpts(2, 3);
  opts.max_task_attempts = 1;
  FaultPlan faults;
  faults.Add(
      FaultPlan::TaskCrash{"reduce", 1, -1, 1.0, "persistent reducer fault"});
  opts.fault_plan = &faults;
  Result<ParallelEvalResult> result =
      EvaluateParallel(wf, table, DerivedPlan(wf, 1), opts);
  ASSERT_FALSE(result.ok());
  const std::string& msg = result.status().message();
  EXPECT_NE(msg.find("reduce task 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("persistent reducer fault"), std::string::npos) << msg;
}

TEST(ParallelEvalTest, EarlyAggregationCountsMergedPartialsNotRecords) {
  SchemaPtr schema = TestSchema();
  WorkflowBuilder b(schema);
  b.AddBasic("sum", Gran(schema, "value", "quad"), AggregateFn::kSum, "X");
  Workflow wf = std::move(b).Build().value();
  Table table = GenerateUniformTable(schema, 4000, 17);
  ExecutionPlan plan = DerivedPlan(wf, 1);

  Result<ParallelEvalResult> raw =
      EvaluateParallel(wf, table, plan, EvalOpts(3, 4));
  ASSERT_TRUE(raw.ok());
  // Raw redistribution scans every (replicated) record locally.
  EXPECT_EQ(raw->local_stats.records, raw->metrics.emitted_pairs);
  EXPECT_EQ(raw->local_stats.merged_partials, 0);

  plan.early_aggregation = true;
  Result<ParallelEvalResult> early =
      EvaluateParallel(wf, table, plan, EvalOpts(3, 4));
  ASSERT_TRUE(early.ok());
  // The early-agg path merges shuffled partial states; it must not claim
  // them as scanned records (the old bug inflated `records` here).
  EXPECT_EQ(early->local_stats.records, 0);
  EXPECT_EQ(early->local_stats.merged_partials,
            early->metrics.emitted_pairs);
}

TEST(ParallelEvalTest, NominalAttributesDistributeCorrectly) {
  SchemaPtr schema = MakeSchemaOrDie(
      {Hierarchy::Nominal("K", 12,
                          {{0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3},
                           {0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1, 1}},
                          {"word", "group", "super"})
           .value(),
       Hierarchy::Numeric("T", 64, {8}, {"tick", "oct"}).value()});
  WorkflowBuilder b(schema);
  Granularity fine =
      Granularity::Of(*schema, {{"K", "word"}, {"T", "tick"}}).value();
  Granularity coarse =
      Granularity::Of(*schema, {{"K", "group"}, {"T", "oct"}}).value();
  int m1 = b.AddBasic("cnt", fine, AggregateFn::kCount, "T");
  b.AddSourceAggregate("up", coarse, AggregateFn::kSum,
                       {WorkflowBuilder::ChildParent(m1)});
  Workflow wf = std::move(b).Build().value();
  Table table = GenerateUniformTable(schema, 2000, 44);
  MeasureResultSet expected = EvaluateReference(wf, table);
  Result<ParallelEvalResult> result =
      EvaluateParallel(wf, table, DerivedPlan(wf, 1), EvalOpts(2, 4));
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(CompareResultSets(expected, result->results, 1e-9).ok())
      << CompareResultSets(expected, result->results, 1e-9).ToString();
}

// ---- Shared evaluation (core/shared_evaluator.h): k members over one
// scan must each match a solo run under the same plan bit for bit.

/// Q5 (sibling windows), Q1 and Q3 over ONE schema instance, planned on
/// their concatenation as the service plans a shared batch.
struct SharedFixture {
  SchemaPtr schema = PaperSchema();
  Table table = GenerateUniformTable(schema, 2000, 29);
  std::vector<Workflow> workflows;
  ExecutionPlan plan;

  explicit SharedFixture(int64_t cf) {
    for (PaperQuery q : {PaperQuery::kQ5, PaperQuery::kQ1, PaperQuery::kQ3}) {
      workflows.push_back(MakePaperQuery(q, schema));
    }
    Workflow concat =
        ConcatWorkflows({&workflows[0], &workflows[1], &workflows[2]})
            .value();
    plan.key = DeriveDistributionKeys(concat).query_key;
    plan.clustering_factor = cf;
  }

  std::vector<SharedQuery> Members(size_t k) const {
    std::vector<SharedQuery> queries;
    for (size_t i = 0; i < k; ++i) queries.push_back({&workflows[i], ""});
    return queries;
  }
};

/// Runs the first k members shared and each one solo under the same plan
/// and options; returns the shared run's metrics.
MapReduceMetrics ExpectSharedMatchesSolo(const SharedFixture& fx, size_t k,
                                         const ParallelEvalOptions& options) {
  Result<SharedEvalResult> shared =
      EvaluateParallelShared(fx.Members(k), fx.table, fx.plan, options);
  EXPECT_TRUE(shared.ok()) << shared.status();
  if (!shared.ok()) return MapReduceMetrics();
  EXPECT_EQ(shared->queries.size(), k);
  for (size_t i = 0; i < k && i < shared->queries.size(); ++i) {
    Result<ParallelEvalResult> solo =
        EvaluateParallel(fx.workflows[i], fx.table, fx.plan, options);
    EXPECT_TRUE(solo.ok()) << solo.status();
    if (!solo.ok()) continue;
    const SharedQueryResult& member = shared->queries[i];
    const Status same =
        CompareResultSets(solo->results, member.results, /*tolerance=*/0.0);
    EXPECT_TRUE(same.ok()) << "k=" << k << " member " << i << ": "
                           << same.ToString();
    EXPECT_GT(member.results.TotalResults(), 0);
    EXPECT_EQ(member.blocks_evaluated, solo->blocks_evaluated);
    EXPECT_EQ(member.results_filtered, solo->results_filtered);
  }
  return shared->metrics;
}

TEST(SharedEvalTest, ReplicatingPlanMatchesSoloBitForBit) {
  SharedFixture fx(/*cf=*/4);
  ASSERT_GT(fx.plan.AnnotationWidth(), 0);
  for (size_t k : {size_t{1}, size_t{3}}) {
    const MapReduceMetrics m = ExpectSharedMatchesSolo(fx, k, EvalOpts(3, 4));
    EXPECT_GT(m.ReplicationFactor(), 1.0) << "k=" << k;
  }
}

TEST(SharedEvalTest, ColumnBlockSpillsMatchSoloBitForBit) {
  SharedFixture fx(/*cf=*/1);
  ParallelEvalOptions options = EvalOpts(3, 4);
  options.emitter_spill_threshold_bytes = int64_t{1} << 12;
  for (size_t k : {size_t{1}, size_t{3}}) {
    const MapReduceMetrics m = ExpectSharedMatchesSolo(fx, k, options);
    EXPECT_GT(m.emitter_spilled_runs, 0)
        << "spill threshold did not trigger; tighten the test";
  }
}

TEST(SharedEvalTest, RejectsUnsupportedRequests) {
  SharedFixture fx(/*cf=*/1);
  const ParallelEvalOptions options = EvalOpts(2, 2);
  const auto status_of = [&](const std::vector<SharedQuery>& queries,
                             const ExecutionPlan& plan,
                             const ParallelEvalOptions& opts) {
    return EvaluateParallelShared(queries, fx.table, plan, opts)
        .status()
        .code();
  };
  constexpr StatusCode kInvalid = StatusCode::kInvalidArgument;

  EXPECT_EQ(status_of({}, fx.plan, options), kInvalid);
  EXPECT_EQ(status_of({{nullptr, ""}}, fx.plan, options), kInvalid);

  // Same query text, but a different schema instance than member 0's.
  const Workflow foreign = MakePaperQuery(PaperQuery::kQ1, PaperSchema());
  std::vector<SharedQuery> mixed = fx.Members(1);
  mixed.push_back({&foreign, ""});
  EXPECT_EQ(status_of(mixed, fx.plan, options), kInvalid);

  ExecutionPlan early = fx.plan;
  early.early_aggregation = true;
  EXPECT_EQ(status_of(fx.Members(1), early, options), kInvalid);

  ExecutionPlan combined = fx.plan;
  combined.combined_sort = true;
  EXPECT_EQ(status_of(fx.Members(1), combined, options), kInvalid);

  for (ParallelEvalPhase phase :
       {ParallelEvalPhase::kMapOnly, ParallelEvalPhase::kShuffleOnly,
        ParallelEvalPhase::kLocalSortOnly}) {
    ParallelEvalOptions partial = options;
    partial.phase = phase;
    EXPECT_EQ(status_of(fx.Members(1), fx.plan, partial), kInvalid);
  }

  ParallelEvalOptions checkpointed = options;
  checkpointed.checkpoint.dir = "unused-checkpoint-dir";
  checkpointed.checkpoint.mode = CheckpointMode::kResume;
  ASSERT_TRUE(checkpointed.checkpoint.enabled());
  EXPECT_EQ(status_of(fx.Members(1), fx.plan, checkpointed), kInvalid);
}

}  // namespace
}  // namespace casm
