// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Randomized differential tests for the local aggregation engines
// (src/agg): every engine — and the adaptive chooser under every forced
// decision — must agree with the reference evaluator on every workload,
// across cardinality and skew ladders, serially and under a thread pool.
// Floating-point tolerance covers merge-order rounding differences
// between engines; group sets and counts must match exactly.

#include <algorithm>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "agg/local_aggregator.h"
#include "common/thread_pool.h"
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
                           int64_t n, LocalAggEngine engine, ThreadPool* pool,
                           LocalAggOptions options = LocalAggOptions(),
                           LocalEvalStats* stats = nullptr,
                           bool assume_sorted = false) {
  options.engine = engine;
  std::unique_ptr<LocalAggregator> agg =
      MakeLocalAggregator(&wf, nullptr, options);
  LocalAggContext ctx;
  ctx.rows = rows.data();
  ctx.n = n;
  ctx.assume_sorted = assume_sorted;
  ctx.pool = pool;
  LocalEvalStats local_stats;
  return agg->Evaluate(ctx, stats != nullptr ? stats : &local_stats);
}

const LocalAggEngine kAllEngines[] = {
    LocalAggEngine::kSortScan, LocalAggEngine::kMorsel,
    LocalAggEngine::kRadix, LocalAggEngine::kAdaptive};

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
  // skewed data, each engine serial and pooled.
  ThreadPool pool(4);
  for (PaperQuery q : {PaperQuery::kQ1, PaperQuery::kQ5, PaperQuery::kQ6}) {
    Workflow wf = MakePaperQuery(q);
    for (bool skewed : {false, true}) {
      Table table = skewed ? PaperSkewedTable(3000, 91) :
                             PaperUniformTable(3000, 17);
      MeasureResultSet expected = EvaluateReference(wf, table);
      std::vector<int64_t> rows = FlatRows(table);
      for (LocalAggEngine engine : kAllEngines) {
        for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
          MeasureResultSet got =
              RunEngine(wf, rows, table.num_rows(), engine, p);
          Status match = CompareResultSets(expected, got, kTol);
          EXPECT_TRUE(match.ok())
              << PaperQueryName(q) << " skewed=" << skewed << " engine="
              << LocalAggEngineName(engine) << " pooled=" << (p != nullptr)
              << ": " << match.ToString();
        }
      }
    }
  }
}

TEST(LocalAggDifferentialTest, WeblogWorkflowAllEnginesMatchReference) {
  Workflow wf = MakeWeblogWorkflow();
  Table table = WeblogTable(2500, 7);  // Zipf keywords: natural skew
  MeasureResultSet expected = EvaluateReference(wf, table);
  std::vector<int64_t> rows = FlatRows(table);
  ThreadPool pool(3);
  for (LocalAggEngine engine : kAllEngines) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      MeasureResultSet got = RunEngine(wf, rows, table.num_rows(), engine, p);
      Status match = CompareResultSets(expected, got, kTol);
      EXPECT_TRUE(match.ok())
          << "engine=" << LocalAggEngineName(engine)
          << " pooled=" << (p != nullptr) << ": " << match.ToString();
    }
  }
}

/// Basic-measure workflows at three grouping granularities: day/tier3
/// (few groups), hour/tier2 (middling), minute/value (nearly one group
/// per record at test sizes) — the cardinality ladder the chooser
/// navigates.
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
  ThreadPool pool(4);
  for (int rung = 0; rung < 3; ++rung) {
    Workflow wf = LadderWorkflow(schema, rung);
    for (bool skewed : {false, true}) {
      Table table = skewed ? PaperSkewedTable(6000, 23 + rung)
                           : PaperUniformTable(6000, 41 + rung);
      MeasureResultSet expected = EvaluateReference(wf, table);
      std::vector<int64_t> rows = FlatRows(table);
      for (LocalAggEngine engine : kAllEngines) {
        for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
          MeasureResultSet got =
              RunEngine(wf, rows, table.num_rows(), engine, p);
          Status match = CompareResultSets(expected, got, kTol);
          EXPECT_TRUE(match.ok())
              << "rung=" << rung << " skewed=" << skewed << " engine="
              << LocalAggEngineName(engine) << " pooled=" << (p != nullptr)
              << ": " << match.ToString();
        }
      }
    }
  }
}

TEST(LocalAggDifferentialTest, StressedEngineKnobsStayCorrect) {
  // Tiny thread-local tables (constant spilling), few partitions, tiny
  // morsels, minimal radix bits: the overflow paths must produce the same
  // answer as the fast paths.
  Workflow wf = MakePaperQuery(PaperQuery::kQ3);
  Table table = PaperUniformTable(4000, 5);
  MeasureResultSet expected = EvaluateReference(wf, table);
  std::vector<int64_t> rows = FlatRows(table);
  ThreadPool pool(4);

  LocalAggOptions stressed;
  stressed.morsel_rows = 64;
  stressed.max_local_entries = 8;  // spill nearly every morsel
  stressed.morsel_partitions = 4;
  stressed.radix_bits = 1;
  stressed.sample_rows = 32;
  stressed.min_choose_rows = 1;
  for (LocalAggEngine engine : kAllEngines) {
    for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
      MeasureResultSet got =
          RunEngine(wf, rows, table.num_rows(), engine, p, stressed);
      Status match = CompareResultSets(expected, got, kTol);
      EXPECT_TRUE(match.ok())
          << "engine=" << LocalAggEngineName(engine)
          << " pooled=" << (p != nullptr) << ": " << match.ToString();
    }
  }
}

TEST(LocalAggDifferentialTest, MorselSerialPooledAndSortScanAgreeOnOneRowBlocks) {
  // One-row blocks are the common reducer block on paper workloads; the
  // serial morsel path finalizes its one table directly.
  ThreadPool pool(4);
  for (PaperQuery q : {PaperQuery::kQ1, PaperQuery::kQ5, PaperQuery::kQ6}) {
    Workflow wf = MakePaperQuery(q);
    Table table = PaperUniformTable(64, 71);
    const int64_t width = table.row_width();
    for (int64_t r = 0; r < table.num_rows(); ++r) {
      std::vector<int64_t> block(table.row(r), table.row(r) + width);
      MeasureResultSet sortscan =
          RunEngine(wf, block, 1, LocalAggEngine::kSortScan, nullptr);
      ASSERT_GT(sortscan.TotalResults(), 0);
      for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
        MeasureResultSet morsel =
            RunEngine(wf, block, 1, LocalAggEngine::kMorsel, p);
        Status match = CompareResultSets(sortscan, morsel, 1e-9);
        EXPECT_TRUE(match.ok())
            << PaperQueryName(q) << " row=" << r
            << " pooled=" << (p != nullptr) << ": " << match.ToString();
      }
    }
  }
}

TEST(LocalAggDifferentialTest, MorselSerialPooledAndSortScanAgreePastLocalTableBound) {
  // More groups than max_local_entries: the pooled path spills and merges
  // partitions, the serial path keeps one table that simply grows.
  SchemaPtr schema = PaperSchema();
  Workflow wf = LadderWorkflow(schema, /*rung=*/2);  // near-unique groups
  Table table = PaperUniformTable(3000, 83);
  std::vector<int64_t> rows = FlatRows(table);
  LocalAggOptions options;
  options.max_local_entries = 16;
  options.morsel_rows = 128;  // several shards under the pool
  MeasureResultSet sortscan = RunEngine(
      wf, rows, table.num_rows(), LocalAggEngine::kSortScan, nullptr, options);
  ASSERT_GT(sortscan.values(0).size(),
            static_cast<size_t>(options.max_local_entries));
  Status reference =
      CompareResultSets(EvaluateReference(wf, table), sortscan, 1e-9);
  ASSERT_TRUE(reference.ok()) << reference.ToString();
  ThreadPool pool(4);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    MeasureResultSet morsel = RunEngine(wf, rows, table.num_rows(),
                                        LocalAggEngine::kMorsel, p, options);
    Status match = CompareResultSets(sortscan, morsel, 1e-9);
    EXPECT_TRUE(match.ok())
        << "pooled=" << (p != nullptr) << ": " << match.ToString();
  }
}

TEST(LocalAggDifferentialTest, AdaptiveMatchesUnderEveryForcedDecision) {
  // Drive the chooser into each branch by knob extremes; every decision
  // must still be correct (the chooser may only affect speed).
  Workflow wf = MakePaperQuery(PaperQuery::kQ1);
  Table table = PaperUniformTable(5000, 3);
  MeasureResultSet expected = EvaluateReference(wf, table);
  std::vector<int64_t> rows = FlatRows(table);

  LocalAggOptions force_radix;
  force_radix.min_choose_rows = 1;
  force_radix.skew_morsel_threshold = 1.1;
  force_radix.sortscan_group_ratio = 2.0;  // ratio can never reach it
  force_radix.morsel_group_limit = 0;       // and no group count is <= 0

  LocalAggOptions force_morsel;
  force_morsel.sortscan_group_ratio = 2.0;
  force_morsel.morsel_group_limit =
      std::numeric_limits<int64_t>::max();  // every group count qualifies

  LocalAggOptions force_skew_morsel;
  force_skew_morsel.min_choose_rows = 1;
  force_skew_morsel.skew_morsel_threshold = 0.0;  // everything "skewed"

  int case_id = 0;
  for (const LocalAggOptions& opts :
       {force_radix, force_morsel, force_skew_morsel}) {
    LocalEvalStats stats;
    MeasureResultSet got = RunEngine(wf, rows, table.num_rows(),
                                     LocalAggEngine::kAdaptive, nullptr, opts,
                                     &stats);
    Status match = CompareResultSets(expected, got, kTol);
    EXPECT_TRUE(match.ok()) << "case=" << case_id << ": " << match.ToString();
    EXPECT_EQ(stats.agg_blocks_sortscan, 0) << "case=" << case_id;
    ++case_id;
  }

  // Near-unique routing: with the unique-ratio cutoff at 0 every unsorted
  // block projects "near-unique" and must take the sort/scan path.
  LocalAggOptions force_unique_sortscan;
  force_unique_sortscan.min_choose_rows = 1;
  force_unique_sortscan.skew_morsel_threshold = 1.1;
  force_unique_sortscan.sortscan_group_ratio = 0.0;
  LocalEvalStats stats;
  MeasureResultSet got =
      RunEngine(wf, rows, table.num_rows(), LocalAggEngine::kAdaptive, nullptr,
                force_unique_sortscan, &stats);
  Status match = CompareResultSets(expected, got, kTol);
  EXPECT_TRUE(match.ok()) << match.ToString();
  EXPECT_EQ(stats.agg_blocks_sortscan, 1);
  EXPECT_EQ(stats.agg_blocks_morsel, 0);
  EXPECT_EQ(stats.agg_blocks_radix, 0);
}

TEST(LocalAggDifferentialTest, AdaptiveRoutesSortedInputToSortScan) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ1);
  Table table = PaperUniformTable(5000, 29);
  MeasureResultSet expected = EvaluateReference(wf, table);
  std::vector<int64_t> rows = FlatRows(table);

  // Pre-sort by the shared sort order, as the combined framework sort
  // would, then assert the chooser takes the free-sort path.
  const SortScanEvaluator sortscan(&wf);
  const int width = table.row_width();
  std::vector<int64_t> order(static_cast<size_t>(table.num_rows()));
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

  LocalEvalStats stats;
  MeasureResultSet got =
      RunEngine(wf, sorted, table.num_rows(), LocalAggEngine::kAdaptive,
                nullptr, LocalAggOptions(), &stats, /*assume_sorted=*/true);
  Status match = CompareResultSets(expected, got, kTol);
  EXPECT_TRUE(match.ok()) << match.ToString();
  EXPECT_EQ(stats.agg_blocks_sortscan, 1);
  EXPECT_EQ(stats.agg_blocks_morsel, 0);
  EXPECT_EQ(stats.agg_blocks_radix, 0);
}

TEST(LocalAggDifferentialTest, EngineStatsCountBlocks) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ1);
  Table table = PaperUniformTable(2000, 13);
  std::vector<int64_t> rows = FlatRows(table);
  LocalEvalStats stats;
  RunEngine(wf, rows, table.num_rows(), LocalAggEngine::kRadix, nullptr,
            LocalAggOptions(), &stats);
  EXPECT_EQ(stats.agg_blocks_radix, 1);
  RunEngine(wf, rows, table.num_rows(), LocalAggEngine::kMorsel, nullptr,
            LocalAggOptions(), &stats);
  EXPECT_EQ(stats.agg_blocks_morsel, 1);
  RunEngine(wf, rows, table.num_rows(), LocalAggEngine::kSortScan, nullptr,
            LocalAggOptions(), &stats);
  EXPECT_EQ(stats.agg_blocks_sortscan, 1);
}

TEST(LocalAggDifferentialTest, SerialEvaluationIsDeterministic) {
  // Serial (null pool) evaluation must be bit-deterministic: checkpoint
  // verification (ckpt/) compares recomputed results exactly.
  Workflow wf = MakePaperQuery(PaperQuery::kQ5);
  Table table = PaperUniformTable(3000, 47);
  std::vector<int64_t> rows = FlatRows(table);
  for (LocalAggEngine engine : kAllEngines) {
    MeasureResultSet a = RunEngine(wf, rows, table.num_rows(), engine, nullptr);
    MeasureResultSet b = RunEngine(wf, rows, table.num_rows(), engine, nullptr);
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
    std::unique_ptr<LocalAggregator> agg = MakeLocalAggregator(&wf);
    LocalAggOptions options;
    options.engine = engine;
    agg = MakeLocalAggregator(&wf, nullptr, options);
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

TEST(LocalAggTraceTest, EvaluationRecordsEngineSpans) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ1);
  Table table = PaperUniformTable(2000, 71);
  std::vector<int64_t> rows = FlatRows(table);
  TraceRecorder trace;
  trace.set_enabled(true);
  std::unique_ptr<LocalAggregator> agg = MakeLocalAggregator(&wf);
  LocalAggContext ctx;
  ctx.rows = rows.data();
  ctx.n = table.num_rows();
  ctx.trace = &trace;
  ctx.task = 7;
  LocalEvalStats stats;
  agg->Evaluate(ctx, &stats);
  bool saw_localagg = false;
  for (const TraceEvent& ev : trace.Snapshot()) {
    if (std::string(ev.category) == "localagg") {
      saw_localagg = true;
      EXPECT_EQ(ev.task, 7);
      Result<LocalAggEngine> engine = ParseLocalAggEngine(ev.name);
      EXPECT_TRUE(engine.ok()) << ev.name;
    }
  }
  EXPECT_TRUE(saw_localagg);
}

}  // namespace
}  // namespace casm
