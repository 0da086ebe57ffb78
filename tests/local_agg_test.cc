// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Randomized differential tests for local aggregation (src/agg): sort/scan
// and the morsel path must agree with the reference evaluator on every
// workload, across cardinality and skew ladders, and the default options
// must route each block by the one rule of agg/local_aggregator.h.
// Floating-point tolerance covers merge-order rounding differences
// between the two paths; group sets and counts must match exactly.

#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "agg/local_aggregator.h"
#include "core/key_derivation.h"
#include "core/parallel_evaluator.h"
#include "local/reference_evaluator.h"
#include "local/sortscan_evaluator.h"
#include "obs/trace.h"
#include "queries/paper_data.h"
#include "queries/paper_queries.h"

namespace casm {
namespace {

constexpr double kTol = 1e-7;

std::vector<int64_t> FlatRows(const Table& table) {
  const int64_t* first = table.row(0);
  return std::vector<int64_t>(
      first, first + table.num_rows() * table.row_width());
}

MeasureResultSet RunEngine(const Workflow& wf, std::vector<int64_t>& rows,
                           int64_t n, LocalAggEngine engine,
                           LocalAggOptions options = LocalAggOptions(),
                           LocalEvalStats* stats = nullptr) {
  options.engine = engine;
  std::unique_ptr<LocalAggregator> agg =
      MakeLocalAggregator(&wf, nullptr, options);
  LocalAggContext ctx;
  ctx.rows = rows.data();
  ctx.n = n;
  LocalEvalStats local_stats;
  return agg->Evaluate(ctx, stats != nullptr ? stats : &local_stats);
}

const LocalAggEngine kAllEngines[] = {LocalAggEngine::kSortScan,
                                      LocalAggEngine::kMorsel};

TEST(LocalAggEngineTest, NameParseRoundTrip) {
  for (LocalAggEngine engine : kAllEngines) {
    Result<LocalAggEngine> parsed =
        ParseLocalAggEngine(LocalAggEngineName(engine));
    ASSERT_TRUE(parsed.ok()) << LocalAggEngineName(engine);
    EXPECT_EQ(parsed.value(), engine);
  }
  EXPECT_FALSE(ParseLocalAggEngine("bogus").ok());
  EXPECT_FALSE(ParseLocalAggEngine("").ok());
}

TEST(LocalAggDifferentialTest, PaperQueriesAllEnginesMatchReference) {
  // Q1 (independent fine basics), Q5 (sibling windows) and Q6 (all four
  // relations including holistic medians) over uniform and temporally
  // skewed data, each engine.
  for (PaperQuery q : {PaperQuery::kQ1, PaperQuery::kQ5, PaperQuery::kQ6}) {
    Workflow wf = MakePaperQuery(q);
    for (bool skewed : {false, true}) {
      Table table = skewed ? PaperSkewedTable(3000, 91) :
                             PaperUniformTable(3000, 17);
      MeasureResultSet expected = EvaluateReference(wf, table);
      std::vector<int64_t> rows = FlatRows(table);
      for (LocalAggEngine engine : kAllEngines) {
        MeasureResultSet got = RunEngine(wf, rows, table.num_rows(), engine);
        Status match = CompareResultSets(expected, got, kTol);
        EXPECT_TRUE(match.ok())
            << PaperQueryName(q) << " skewed=" << skewed
            << " engine=" << LocalAggEngineName(engine) << ": "
            << match.ToString();
      }
    }
  }
}

TEST(LocalAggDifferentialTest, WeblogWorkflowAllEnginesMatchReference) {
  Workflow wf = MakeWeblogWorkflow();
  Table table = WeblogTable(2500, 7);  // Zipf keywords: natural skew
  MeasureResultSet expected = EvaluateReference(wf, table);
  std::vector<int64_t> rows = FlatRows(table);
  for (LocalAggEngine engine : kAllEngines) {
    MeasureResultSet got = RunEngine(wf, rows, table.num_rows(), engine);
    Status match = CompareResultSets(expected, got, kTol);
    EXPECT_TRUE(match.ok()) << "engine=" << LocalAggEngineName(engine)
                            << ": " << match.ToString();
  }
}

/// Basic-measure workflows at three grouping granularities: day/tier3
/// (few groups), hour/tier2 (middling), minute/value (nearly one group
/// per record at test sizes) — the cardinality ladder of
/// bench/fig_localagg.
Workflow LadderWorkflow(const SchemaPtr& schema, int rung) {
  const char* d_level = rung == 0 ? "tier3" : rung == 1 ? "tier2" : "value";
  const char* t_level = rung == 0 ? "day" : rung == 1 ? "hour" : "minute";
  WorkflowBuilder b(schema);
  Granularity gran =
      Granularity::Of(*schema, {{"D1", d_level}, {"T1", t_level}}).value();
  b.AddBasic("sum", gran, AggregateFn::kSum, "D2");
  b.AddBasic("cnt", gran, AggregateFn::kCount, "D2");
  b.AddBasic("max", gran, AggregateFn::kMax, "D3");
  Result<Workflow> wf = std::move(b).Build();
  CASM_CHECK(wf.ok()) << wf.status().ToString();
  return std::move(wf).value();
}

TEST(LocalAggDifferentialTest, CardinalitySkewLadder) {
  SchemaPtr schema = PaperSchema();
  for (int rung = 0; rung < 3; ++rung) {
    Workflow wf = LadderWorkflow(schema, rung);
    for (bool skewed : {false, true}) {
      Table table = skewed ? PaperSkewedTable(6000, 23 + rung)
                           : PaperUniformTable(6000, 41 + rung);
      MeasureResultSet expected = EvaluateReference(wf, table);
      std::vector<int64_t> rows = FlatRows(table);
      for (LocalAggEngine engine : kAllEngines) {
        MeasureResultSet got = RunEngine(wf, rows, table.num_rows(), engine);
        Status match = CompareResultSets(expected, got, kTol);
        EXPECT_TRUE(match.ok())
            << "rung=" << rung << " skewed=" << skewed
            << " engine=" << LocalAggEngineName(engine) << ": "
            << match.ToString();
      }
    }
  }
}

TEST(LocalAggDifferentialTest, StressedEngineKnobsStayCorrect) {
  // Tiny morsels: the morsel path's many morsel and batch boundaries must
  // produce the same answer as the default sizes.
  Workflow wf = MakePaperQuery(PaperQuery::kQ3);
  Table table = PaperUniformTable(4000, 5);
  MeasureResultSet expected = EvaluateReference(wf, table);
  std::vector<int64_t> rows = FlatRows(table);

  LocalAggOptions stressed;
  stressed.morsel_rows = 64;
  for (LocalAggEngine engine : kAllEngines) {
    MeasureResultSet got =
        RunEngine(wf, rows, table.num_rows(), engine, stressed);
    Status match = CompareResultSets(expected, got, kTol);
    EXPECT_TRUE(match.ok()) << "engine=" << LocalAggEngineName(engine)
                            << ": " << match.ToString();
  }
}

TEST(LocalAggDifferentialTest, MorselAndSortScanAgreeOnOneRowBlocks) {
  // One-row blocks are the common reducer block on paper workloads.
  for (PaperQuery q : {PaperQuery::kQ1, PaperQuery::kQ5, PaperQuery::kQ6}) {
    Workflow wf = MakePaperQuery(q);
    Table table = PaperUniformTable(64, 71);
    const int64_t width = table.row_width();
    for (int64_t r = 0; r < table.num_rows(); ++r) {
      std::vector<int64_t> block(table.row(r), table.row(r) + width);
      MeasureResultSet sortscan =
          RunEngine(wf, block, 1, LocalAggEngine::kSortScan);
      ASSERT_GT(sortscan.TotalResults(), 0);
      MeasureResultSet morsel =
          RunEngine(wf, block, 1, LocalAggEngine::kMorsel);
      Status match = CompareResultSets(sortscan, morsel, 1e-9);
      EXPECT_TRUE(match.ok()) << PaperQueryName(q) << " row=" << r << ": "
                              << match.ToString();
    }
  }
}

TEST(LocalAggDifferentialTest, MorselAndSortScanAgreeOnNearUniqueGroups) {
  // More groups than rows per morsel: the morsel path's one table keeps
  // growing across morsels and must still match sort/scan.
  SchemaPtr schema = PaperSchema();
  Workflow wf = LadderWorkflow(schema, /*rung=*/2);  // near-unique groups
  Table table = PaperUniformTable(3000, 83);
  std::vector<int64_t> rows = FlatRows(table);
  LocalAggOptions options;
  options.morsel_rows = 128;
  MeasureResultSet sortscan = RunEngine(
      wf, rows, table.num_rows(), LocalAggEngine::kSortScan, options);
  ASSERT_GT(sortscan.values(0).size(),
            static_cast<size_t>(options.morsel_rows));
  Status reference =
      CompareResultSets(EvaluateReference(wf, table), sortscan, 1e-9);
  ASSERT_TRUE(reference.ok()) << reference.ToString();
  MeasureResultSet morsel = RunEngine(wf, rows, table.num_rows(),
                                      LocalAggEngine::kMorsel, options);
  Status match = CompareResultSets(sortscan, morsel, 1e-9);
  EXPECT_TRUE(match.ok()) << match.ToString();
}

/// `rows` (n records) reordered into the sort/scan plan's RowLess order, as
/// the combined framework sort would deliver them.
std::vector<int64_t> SortedRows(const Workflow& wf,
                                const std::vector<int64_t>& rows, int64_t n) {
  const SortScanEvaluator sortscan(&wf);
  const int width = wf.schema()->num_attributes();
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return sortscan.RowLess(rows.data() + a * width, rows.data() + b * width);
  });
  std::vector<int64_t> sorted;
  sorted.reserve(rows.size());
  for (int64_t i : order) {
    sorted.insert(sorted.end(), rows.begin() + i * width,
                  rows.begin() + (i + 1) * width);
  }
  return sorted;
}

TEST(LocalAggDifferentialTest, DefaultOptionsRouteByTheOneRule) {
  // A 20k-row near-unique block (minute/value, bench/fig_localagg's fine
  // rung): unsorted it takes the morsel path, pre-sorted (combined sort)
  // or in the sort-only phase it takes sort/scan.
  SchemaPtr schema = PaperSchema();
  Workflow wf = LadderWorkflow(schema, /*rung=*/2);
  Table table = PaperUniformTable(20000, 1717);
  const int64_t n = table.num_rows();
  MeasureResultSet expected = EvaluateReference(wf, table);
  std::vector<int64_t> rows = FlatRows(table);
  std::vector<int64_t> sorted = SortedRows(wf, rows, n);
  std::unique_ptr<LocalAggregator> agg = MakeLocalAggregator(&wf);

  LocalAggContext unsorted_ctx;
  unsorted_ctx.rows = rows.data();
  unsorted_ctx.n = n;
  LocalEvalStats unsorted_stats;
  MeasureResultSet got = agg->Evaluate(unsorted_ctx, &unsorted_stats);
  Status match = CompareResultSets(expected, got, kTol);
  EXPECT_TRUE(match.ok()) << "unsorted: " << match.ToString();
  EXPECT_EQ(unsorted_stats.agg_blocks_morsel, 1);
  EXPECT_EQ(unsorted_stats.agg_blocks_sortscan, 0);

  LocalAggContext sorted_ctx;
  sorted_ctx.rows = sorted.data();
  sorted_ctx.n = n;
  sorted_ctx.assume_sorted = true;
  LocalEvalStats sorted_stats;
  got = agg->Evaluate(sorted_ctx, &sorted_stats);
  match = CompareResultSets(expected, got, kTol);
  EXPECT_TRUE(match.ok()) << "sorted: " << match.ToString();
  EXPECT_EQ(sorted_stats.agg_blocks_sortscan, 1);
  EXPECT_EQ(sorted_stats.agg_blocks_morsel, 0);

  // The sort-only phase sorts the block and produces no results.
  LocalAggContext sort_only_ctx = unsorted_ctx;
  sort_only_ctx.phase = LocalEvalPhase::kSortOnly;
  LocalEvalStats sort_only_stats;
  got = agg->Evaluate(sort_only_ctx, &sort_only_stats);
  EXPECT_EQ(got.TotalResults(), 0);
  EXPECT_EQ(sort_only_stats.agg_blocks_sortscan, 1);
  EXPECT_EQ(sort_only_stats.agg_blocks_morsel, 0);
  EXPECT_EQ(sort_only_stats.records, n);
}

TEST(LocalAggDifferentialTest, EngineStatsCountBlocks) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ1);
  Table table = PaperUniformTable(2000, 13);
  std::vector<int64_t> rows = FlatRows(table);
  LocalEvalStats stats;
  RunEngine(wf, rows, table.num_rows(), LocalAggEngine::kMorsel,
            LocalAggOptions(), &stats);
  EXPECT_EQ(stats.agg_blocks_morsel, 1);
  RunEngine(wf, rows, table.num_rows(), LocalAggEngine::kSortScan,
            LocalAggOptions(), &stats);
  EXPECT_EQ(stats.agg_blocks_sortscan, 1);
  EXPECT_EQ(stats.agg_blocks_radix, 0);
}

TEST(LocalAggDifferentialTest, SerialEvaluationIsDeterministic) {
  // Evaluation must be bit-deterministic: checkpoint verification (ckpt/)
  // compares recomputed results exactly.
  Workflow wf = MakePaperQuery(PaperQuery::kQ5);
  Table table = PaperUniformTable(3000, 47);
  std::vector<int64_t> rows = FlatRows(table);
  for (LocalAggEngine engine : kAllEngines) {
    MeasureResultSet a = RunEngine(wf, rows, table.num_rows(), engine);
    MeasureResultSet b = RunEngine(wf, rows, table.num_rows(), engine);
    Status match = CompareResultSets(a, b, 0.0);
    EXPECT_TRUE(match.ok()) << "engine=" << LocalAggEngineName(engine) << ": "
                            << match.ToString();
  }
}

TEST(LocalAggDifferentialTest, CancelledBlockReturnsEarly) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ1);
  Table table = PaperUniformTable(3000, 53);
  std::vector<int64_t> rows = FlatRows(table);
  CancellationToken cancel;
  cancel.Cancel();
  for (LocalAggEngine engine : kAllEngines) {
    LocalAggOptions options;
    options.engine = engine;
    std::unique_ptr<LocalAggregator> agg =
        MakeLocalAggregator(&wf, nullptr, options);
    LocalAggContext ctx;
    ctx.rows = rows.data();
    ctx.n = table.num_rows();
    ctx.cancel = &cancel;
    LocalEvalStats stats;
    // Incomplete results are fine (the caller discards them); the engine
    // just must not crash or hang.
    agg->Evaluate(ctx, &stats);
  }
}

TEST(LocalAggCombinerTest, BoundedCombinerStaysExactUnderTinyTable) {
  // Early aggregation with a 16-entry combiner table: constant flushing,
  // reducers see many partials per group, results must stay exact.
  Workflow wf = MakePaperQuery(PaperQuery::kDS1);
  Table table = PaperUniformTable(4000, 61);
  MeasureResultSet expected = EvaluateReference(wf, table);

  ExecutionPlan plan;
  plan.key = DeriveDistributionKeys(wf).query_key;
  plan.early_aggregation = true;
  ParallelEvalOptions opts;
  opts.num_mappers = 3;
  opts.num_reducers = 3;
  opts.num_threads = 2;
  opts.local_agg.combiner_max_entries = 16;
  Result<ParallelEvalResult> result = EvaluateParallel(wf, table, plan, opts);
  ASSERT_TRUE(result.ok()) << result.status();
  Status match = CompareResultSets(expected, result->results, kTol);
  EXPECT_TRUE(match.ok()) << match.ToString();
}

TEST(LocalAggCombinerTest, CardinalityBypassStaysExact) {
  // Forcing the bypass (ratio 0: every split trips it after the first
  // check) turns the combiner into direct emission mid-split; the reduce
  // side must still merge per-group partials exactly.
  Workflow wf = MakePaperQuery(PaperQuery::kDS2);
  Table table = PaperUniformTable(4000, 67);
  MeasureResultSet expected = EvaluateReference(wf, table);

  ExecutionPlan plan;
  plan.key = DeriveDistributionKeys(wf).query_key;
  plan.early_aggregation = true;
  ParallelEvalOptions opts;
  opts.num_mappers = 2;
  opts.num_reducers = 2;
  opts.num_threads = 2;
  opts.local_agg.combiner_bypass_ratio = 0.0;
  opts.local_agg.morsel_rows = 64;  // check early
  Result<ParallelEvalResult> result = EvaluateParallel(wf, table, plan, opts);
  ASSERT_TRUE(result.ok()) << result.status();
  Status match = CompareResultSets(expected, result->results, kTol);
  EXPECT_TRUE(match.ok()) << match.ToString();
}

TEST(LocalAggTraceTest, TracedRunRecordsNoPerBlockSpans) {
  // Block counts live in LocalEvalStats and the casm_localagg_blocks_total
  // counter; a traced run must not add a span per reducer block (thousands
  // per query on one-row blocks).
  Workflow wf = MakePaperQuery(PaperQuery::kQ1);
  Table table = PaperUniformTable(2000, 71);
  ExecutionPlan plan;
  plan.key = DeriveDistributionKeys(wf).query_key;
  TraceRecorder trace;
  trace.set_enabled(true);
  ParallelEvalOptions opts;
  opts.num_mappers = 2;
  opts.num_reducers = 2;
  opts.num_threads = 2;
  opts.trace = &trace;
  Result<ParallelEvalResult> result = EvaluateParallel(wf, table, plan, opts);
  ASSERT_TRUE(result.ok()) << result.status();
  const int64_t blocks = result->local_stats.agg_blocks_morsel;
  ASSERT_GT(blocks, 100);
  int64_t localagg_spans = 0;
  const std::vector<TraceEvent> events = trace.Snapshot();
  for (const TraceEvent& ev : events) {
    if (std::string(ev.category) == "localagg" && !ev.instant) {
      ++localagg_spans;
    }
  }
  EXPECT_EQ(localagg_spans, 0);
  EXPECT_LT(static_cast<int64_t>(events.size()), blocks);
}

}  // namespace
}  // namespace casm
