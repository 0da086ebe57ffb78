// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Local aggregation ladder: evaluates one reducer-sized block with
// sort/scan and with the serial morsel path, across a cardinality ladder
// (day/tier3 -> hour/tier2 -> minute/value grouping) crossed with uniform
// and temporally skewed data. Both must produce identical results on
// every point (checked in-process against the reference evaluator; a
// mismatch aborts), so the ladder only measures speed — the evidence for
// routing unsorted blocks to the morsel path (DESIGN.md §11).
//
// JSON (CASM_BENCH_JSON): one row per (point, sortscan|morsel) with the
// block's row count, the best-of-reps wall seconds, and the block
// counters of the path that ran (localagg_sortscan / localagg_morsel).

#include <chrono>
#include <memory>
#include <vector>

#include "agg/local_aggregator.h"
#include "bench/bench_util.h"
#include "local/reference_evaluator.h"

int main() {
  using namespace casm;
  using namespace casm::bench;

  PrintHeader("local aggregation ladder",
              "sort/scan vs morsel, cardinality x skew");
  const int64_t rows = ScaledRows(120000);
  const int reps = 3;
  std::printf("# block=%lld rows, serial, best of %d reps\n",
              static_cast<long long>(rows), reps);

  SchemaPtr schema = PaperSchema();
  struct Rung {
    const char* name;
    const char* d_level;
    const char* t_level;
  };
  const Rung rungs[] = {{"coarse", "tier3", "day"},
                        {"mid", "tier2", "hour"},
                        {"fine", "value", "minute"}};
  const LocalAggEngine engines[] = {LocalAggEngine::kSortScan,
                                    LocalAggEngine::kMorsel};

  std::vector<JsonRow> json;
  std::printf("%-18s%12s%12s\n", "point", "sortscan_s", "morsel_s");
  for (const Rung& rung : rungs) {
    WorkflowBuilder b(schema);
    Granularity gran =
        Granularity::Of(*schema, {{"D1", rung.d_level}, {"T1", rung.t_level}})
            .value();
    b.AddBasic("sum", gran, AggregateFn::kSum, "D2");
    b.AddBasic("cnt", gran, AggregateFn::kCount, "D2");
    b.AddBasic("max", gran, AggregateFn::kMax, "D3");
    Result<Workflow> built = std::move(b).Build();
    CASM_CHECK(built.ok()) << built.status().ToString();
    const Workflow wf = std::move(built).value();

    for (bool skewed : {false, true}) {
      Table table = skewed ? PaperSkewedTable(rows, 4242)
                           : PaperUniformTable(rows, 1717);
      const MeasureResultSet expected = EvaluateReference(wf, table);
      const std::string point =
          std::string(rung.name) + (skewed ? "_skewed" : "_uniform");

      double seconds[2] = {0, 0};
      for (int e = 0; e < 2; ++e) {
        LocalAggOptions options;
        options.engine = engines[e];
        std::unique_ptr<LocalAggregator> agg =
            MakeLocalAggregator(&wf, nullptr, options);
        LocalAggContext ctx;
        ctx.rows = table.data().data();
        ctx.n = table.num_rows();

        double best = 0;
        LocalEvalStats stats;
        for (int rep = 0; rep < reps; ++rep) {
          LocalEvalStats rep_stats;
          const auto start = std::chrono::steady_clock::now();
          MeasureResultSet got = agg->Evaluate(ctx, &rep_stats);
          const double elapsed =
              std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            start)
                  .count();
          if (rep == 0 || elapsed < best) {
            best = elapsed;
            stats = rep_stats;
          }
          // Identical results on every point: a silent divergence would
          // make the speed comparison meaningless.
          Status match = CompareResultSets(expected, got, 1e-7);
          CASM_CHECK(match.ok())
              << point << " engine=" << LocalAggEngineName(engines[e])
              << ": " << match.ToString();
        }
        seconds[e] = best;
        JsonRow row;
        row.label = point + "/" + LocalAggEngineName(engines[e]);
        row.fields.emplace_back("rows", static_cast<double>(rows));
        row.fields.emplace_back("seconds", best);
        row.fields.emplace_back("localagg_sortscan",
                                static_cast<double>(stats.agg_blocks_sortscan));
        row.fields.emplace_back("localagg_morsel",
                                static_cast<double>(stats.agg_blocks_morsel));
        json.push_back(std::move(row));
      }
      std::printf("%-18s%12.4f%12.4f\n", point.c_str(), seconds[0],
                  seconds[1]);
      std::fflush(stdout);
    }
  }
  MaybeWriteJson("fig_localagg", json);
  return 0;
}
