// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Tests for the failure flight recorder (obs/flight_recorder.h) and its
// evaluator integration through the query-run shell (core/query_run.h):
// ring semantics, the disabled-is-inert contract, the diagnostic bundle a
// failing EvaluateParallel, EvaluateMultiJob or shared batch dumps under
// an injected FaultPlan, the lazy query label, and the acceptance
// criterion that per-query registry counters and gauges published on
// success equal the run's MapReduceMetrics exactly.

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint.h"
#include "common/fault.h"
#include "core/key_derivation.h"
#include "core/multijob_evaluator.h"
#include "core/parallel_evaluator.h"
#include "core/shared_evaluator.h"
#include "data/generator.h"
#include "mr/metrics.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/progress.h"

namespace casm {
namespace {

std::string TestDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "casm_flight_" + tag;
  std::filesystem::remove_all(dir);
  return dir;
}

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

SchemaPtr TestSchema() {
  return MakeSchemaOrDie(
      {Hierarchy::Numeric("X", 16, {4}, {"value", "bucket"}).value(),
       Hierarchy::Numeric("T", 96, {4, 16}, {"tick", "quad", "span"})
           .value()});
}

Workflow TestWorkflow(const SchemaPtr& schema) {
  WorkflowBuilder b(schema);
  int m1 = b.AddBasic(
      "base", Granularity::Of(*schema, {{"X", "value"}, {"T", "tick"}}).value(),
      AggregateFn::kSum, "X");
  b.AddSourceAggregate(
      "win", Granularity::Of(*schema, {{"X", "value"}, {"T", "tick"}}).value(),
      AggregateFn::kAvg, {b.Sibling(m1, "T", -3, 1)});
  return std::move(b).Build().value();
}

ExecutionPlan TestPlan(const Workflow& wf) {
  ExecutionPlan plan;
  plan.key = DeriveDistributionKeys(wf).query_key;
  plan.clustering_factor = 2;
  return plan;
}

TEST(FlightRecorderTest, RingKeepsNewestAndCountsTotal) {
  FlightRecorder flight(/*capacity=*/4);
  flight.set_enabled(true);
  for (int i = 0; i < 6; ++i) {
    flight.Record("task", "event-" + std::to_string(i), i, 0,
                  "detail-" + std::to_string(i), "q1");
  }
  EXPECT_EQ(flight.total_recorded(), 6);
  std::vector<FlightEvent> events = flight.Snapshot();
  ASSERT_EQ(events.size(), 4u);  // oldest two evicted
  EXPECT_EQ(events.front().name, "event-2");
  EXPECT_EQ(events.back().name, "event-5");
  EXPECT_EQ(events.back().task, 5);
  EXPECT_EQ(events.back().query, "q1");
  EXPECT_STREQ(events.back().category, "task");

  flight.Clear();
  EXPECT_TRUE(flight.Snapshot().empty());
}

TEST(FlightRecorderTest, DisabledRecorderIsInert) {
  FlightRecorder flight;
  ASSERT_FALSE(flight.enabled());
  flight.Record("task", "ignored");
  EXPECT_EQ(flight.total_recorded(), 0);
  EXPECT_TRUE(flight.Snapshot().empty());
}

TEST(FlightRecorderTest, BundleRendersRingOptionsAndMetrics) {
  FlightRecorder flight;
  flight.set_enabled(true);
  flight.Record("dfs", "dfs-retry", 3, 1, "read node=2 injected", "qbundle");
  MetricsRegistry registry;
  registry.set_enabled(true);
  registry.GetCounter("casm_x_total", "X.")->Increment(5);

  const std::string dir = TestDir("bundle");
  Result<std::string> path = WriteDiagnosticBundle(
      dir, "qbundle", Status::Internal("synthetic failure"),
      "{\"num_mappers\":2}", flight, &registry);
  ASSERT_TRUE(path.ok()) << path.status();
  const std::string body = ReadFileOrDie(*path);
  EXPECT_EQ(body.front(), '{');
  EXPECT_NE(body.find("synthetic failure"), std::string::npos);
  EXPECT_NE(body.find("dfs-retry"), std::string::npos);
  EXPECT_NE(body.find("read node=2 injected"), std::string::npos);
  EXPECT_NE(body.find("\"num_mappers\":2"), std::string::npos);
  EXPECT_NE(body.find("casm_x_total"), std::string::npos);
}

// The acceptance scenario: a chaos-style run whose FaultPlan makes one
// map task fail every attempt. EvaluateParallel must return non-OK and
// drop a diagnostic bundle into options.diag_dir containing the failing
// task's ring events.
TEST(FlightRecorderTest, FailingEvaluationWritesDiagnosticBundle) {
  SchemaPtr schema = TestSchema();
  Workflow wf = TestWorkflow(schema);
  Table table = GenerateUniformTable(schema, 500, 91);

  FaultPlan plan(/*seed=*/7);
  FaultPlan::TaskCrash crash;
  crash.phase = "map";
  crash.task = 1;
  crash.probability = 1.0;  // fatal: survives every retry
  plan.Add(crash);

  FlightRecorder flight;
  flight.set_enabled(true);

  ParallelEvalOptions options;
  options.num_mappers = 3;
  options.num_reducers = 2;
  options.num_threads = 2;
  options.max_task_attempts = 2;
  options.fault_plan = &plan;
  options.flight = &flight;
  options.query_label = "qdiag";
  options.diag_dir = TestDir("diag");

  Result<ParallelEvalResult> run =
      EvaluateParallel(wf, table, TestPlan(wf), options);
  ASSERT_FALSE(run.ok());

  // The ring recorded the injected failures and retries for task 1.
  bool saw_failed = false;
  for (const FlightEvent& e : flight.Snapshot()) {
    if (std::string(e.name) == "task-failed" && e.task == 1) saw_failed = true;
    EXPECT_EQ(e.query, "qdiag");
  }
  EXPECT_TRUE(saw_failed);

  // Exactly one bundle landed in diag_dir, and it carries the ring, the
  // failure status, and the resolved options.
  std::vector<std::string> bundles;
  for (const auto& entry :
       std::filesystem::directory_iterator(options.diag_dir)) {
    bundles.push_back(entry.path().string());
  }
  ASSERT_EQ(bundles.size(), 1u);
  EXPECT_NE(bundles[0].find("casm_diag_qdiag_"), std::string::npos);
  const std::string body = ReadFileOrDie(bundles[0]);
  EXPECT_NE(body.find("task-failed"), std::string::npos);
  EXPECT_NE(body.find("qdiag"), std::string::npos);
  EXPECT_NE(body.find("\"num_mappers\":3"), std::string::npos);
  EXPECT_NE(body.find("injected task crash"), std::string::npos);
}

/// The bundle files in `dir`.
std::vector<std::string> Bundles(const std::string& dir) {
  std::vector<std::string> bundles;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    bundles.push_back(entry.path().string());
  }
  return bundles;
}

/// A plan whose map task 1 fails every attempt.
FaultPlan FatalMapCrash() {
  FaultPlan plan(/*seed=*/7);
  FaultPlan::TaskCrash crash;
  crash.phase = "map";
  crash.task = 1;
  crash.probability = 1.0;
  plan.Add(crash);
  return plan;
}

ParallelEvalOptions FailingOptions(const FaultPlan& plan,
                                   const std::string& label) {
  ParallelEvalOptions options;
  options.num_mappers = 3;
  options.num_reducers = 2;
  options.num_threads = 2;
  options.max_task_attempts = 2;
  options.fault_plan = &plan;
  options.query_label = label;
  options.diag_dir = TestDir(label);
  return options;
}

// The per-measure baseline runs inside the same shell: its first failing
// job ends the sequence with one bundle under the run's label.
TEST(FlightRecorderTest, FailingMultiJobRunWritesOneBundle) {
  SchemaPtr schema = TestSchema();
  Workflow wf = TestWorkflow(schema);
  Table table = GenerateUniformTable(schema, 500, 93);
  const FaultPlan plan = FatalMapCrash();
  const ParallelEvalOptions options = FailingOptions(plan, "qdiag_multijob");

  ASSERT_FALSE(EvaluateMultiJob(wf, table, options).ok());
  const std::vector<std::string> bundles = Bundles(options.diag_dir);
  ASSERT_EQ(bundles.size(), 1u);
  EXPECT_NE(bundles[0].find("casm_diag_qdiag_multijob_"), std::string::npos);
  EXPECT_NE(ReadFileOrDie(bundles[0]).find("injected task crash"),
            std::string::npos);
}

// So does a shared multi-query batch.
TEST(FlightRecorderTest, FailingSharedRunWritesOneBundle) {
  SchemaPtr schema = TestSchema();
  Workflow first = TestWorkflow(schema);
  Workflow second = TestWorkflow(schema);
  Table table = GenerateUniformTable(schema, 500, 95);
  const FaultPlan plan = FatalMapCrash();
  const ParallelEvalOptions options = FailingOptions(plan, "qdiag_shared");

  ASSERT_FALSE(EvaluateParallelShared({{&first, "a"}, {&second, "b"}}, table,
                                      TestPlan(first), options)
                   .ok());
  const std::vector<std::string> bundles = Bundles(options.diag_dir);
  ASSERT_EQ(bundles.size(), 1u);
  EXPECT_NE(bundles[0].find("casm_diag_qdiag_shared_"), std::string::npos);
  EXPECT_NE(ReadFileOrDie(bundles[0]).find("injected task crash"),
            std::string::npos);
}

// The derived "q<fingerprint>" label hashes the whole table, so a run with
// no observability consumer and no checkpoint must never compute it; a run
// with both computes it once and shares it.
TEST(FlightRecorderTest, UnobservedRunNeverFingerprintsTheTable) {
  if (MetricsRegistry::Global()->enabled() ||
      FlightRecorder::Global()->enabled() ||
      !FlightRecorder::GlobalDiagDir().empty() ||
      ProgressTracker::TickerSecondsFromEnv() > 0) {
    GTEST_SKIP() << "an observability environment switch is set";
  }
  SchemaPtr schema = TestSchema();
  Workflow wf = TestWorkflow(schema);
  Table table = GenerateUniformTable(schema, 500, 97);
  ParallelEvalOptions options;
  options.num_mappers = 2;
  options.num_reducers = 2;
  options.num_threads = 2;

  const int64_t before = TableFingerprintCount();
  ASSERT_TRUE(EvaluateParallel(wf, table, TestPlan(wf), options).ok());
  EXPECT_EQ(TableFingerprintCount(), before);

  FlightRecorder flight;
  flight.set_enabled(true);
  options.flight = &flight;
  options.checkpoint.dir = TestDir("fingerprint_once");
  ASSERT_TRUE(EvaluateParallel(wf, table, TestPlan(wf), options).ok());
  EXPECT_EQ(TableFingerprintCount(), before + 1);
}

/// Expects every casm_query_* counter and gauge published under `label`
/// to equal `m` exactly (a fresh label means the counters were zero
/// before), and no other {query=`label`} series to exist.
void ExpectPublishedEqualsMetrics(const MetricsRegistry& registry,
                                  const std::string& label,
                                  const MapReduceMetrics& m) {
  const MetricLabels q = {{"query", label}};
  const std::vector<std::pair<const char*, int64_t>> counters = {
      {"casm_query_input_rows_total", m.input_rows},
      {"casm_query_emitted_pairs_total", m.emitted_pairs},
      {"casm_query_spilled_runs_total", m.spilled_runs},
      {"casm_query_spilled_records_total", m.spilled_records},
      {"casm_query_emitter_spilled_runs_total", m.emitter_spilled_runs},
      {"casm_query_emitter_spilled_records_total", m.emitter_spilled_records},
      {"casm_query_emitter_spilled_bytes_total", m.emitter_spilled_bytes},
      {"casm_query_admission_waits_total", m.admission_waits},
      {"casm_query_task_failures_total", m.task_failures},
      {"casm_query_task_retries_total", m.task_retries},
      {"casm_query_speculative_attempts_total", m.speculative_attempts},
      {"casm_query_speculative_wins_total", m.speculative_wins},
      {"casm_query_cancelled_attempts_total", m.cancelled_attempts},
      {"casm_query_checkpoint_jobs_restored_total",
       m.checkpoint_jobs_restored},
      {"casm_query_checkpoint_bytes_written_total",
       m.checkpoint_bytes_written},
      {"casm_query_checkpoint_bytes_restored_total",
       m.checkpoint_bytes_restored},
      {"casm_query_checkpoint_commit_failures_total",
       m.checkpoint_commit_failures},
      {"casm_query_checkpoint_commits_skipped_total",
       m.checkpoint_commits_skipped},
      {"casm_query_checkpoint_restore_failures_total",
       m.checkpoint_restore_failures},
      {"casm_query_dfs_io_retries_total", m.dfs_io_retries},
      {"casm_query_dfs_write_failovers_total", m.dfs_write_failovers},
      {"casm_query_dfs_corrupt_replicas_total", m.dfs_corrupt_replicas},
      {"casm_query_dfs_repaired_replicas_total", m.dfs_repaired_replicas},
      {"casm_query_dfs_under_replicated_blocks_total",
       m.dfs_under_replicated_blocks},
  };
  for (const auto& [name, value] : counters) {
    EXPECT_EQ(registry.CounterValue(name, q), value) << name;
  }
  const std::vector<std::pair<const char*, double>> gauges = {
      {"casm_query_peak_tracked_bytes",
       static_cast<double>(m.peak_tracked_bytes)},
      {"casm_query_admission_wait_seconds", m.admission_wait_seconds},
      {"casm_query_total_seconds", m.total_seconds},
  };
  for (const auto& [name, value] : gauges) {
    EXPECT_EQ(registry.GaugeValue(name, q), value) << name;
  }

  // No other casm_query_* series is published under the bare label.
  std::istringstream text(registry.PrometheusText());
  const std::string series = "{query=\"" + label + "\"} ";
  size_t published = 0;
  for (std::string line; std::getline(text, line);) {
    if (line.rfind("casm_query_", 0) == 0 &&
        line.find(series) != std::string::npos) {
      ++published;
    }
  }
  EXPECT_EQ(published, counters.size() + gauges.size());
}

/// Enables the global registry for one scope, restoring its state after.
class GlobalRegistryOn {
 public:
  GlobalRegistryOn() : was_enabled_(MetricsRegistry::Global()->enabled()) {
    MetricsRegistry::Global()->set_enabled(true);
  }
  ~GlobalRegistryOn() { MetricsRegistry::Global()->set_enabled(was_enabled_); }

 private:
  const bool was_enabled_;
};

// Per-query registry counters published at evaluation completion must
// equal the returned MapReduceMetrics field-for-field, as exact
// integers (a fresh query label means the counters were zero before).
TEST(FlightRecorderTest, PublishedQueryCountersMatchMetricsExactly) {
  SchemaPtr schema = TestSchema();
  Workflow wf = TestWorkflow(schema);
  Table table = GenerateUniformTable(schema, 800, 47);

  ParallelEvalOptions options;
  options.num_mappers = 3;
  options.num_reducers = 4;
  options.num_threads = 2;
  options.reducer_memory_limit_pairs = 64;      // force reduce-side spills
  options.emitter_spill_threshold_bytes = 512;  // force map-side spills
  options.query_label = "qexact_flight_test";   // fresh label: counters at 0

  Result<ParallelEvalResult> run = [&] {
    GlobalRegistryOn on;
    return EvaluateParallel(wf, table, TestPlan(wf), options);
  }();
  ASSERT_TRUE(run.ok()) << run.status();
  const MapReduceMetrics& m = run->metrics;
  EXPECT_GT(m.input_rows, 0);
  EXPECT_GT(m.emitter_spilled_records, 0);
  EXPECT_GT(m.total_seconds, 0);
  ExpectPublishedEqualsMetrics(*MetricsRegistry::Global(), options.query_label,
                               m);
}

// The same exactness for the per-measure baseline: one publication of the
// whole job sequence's accumulated metrics.
TEST(FlightRecorderTest, MultiJobPublishedCountersMatchMetricsExactly) {
  SchemaPtr schema = TestSchema();
  Workflow wf = TestWorkflow(schema);
  Table table = GenerateUniformTable(schema, 800, 53);

  ParallelEvalOptions options;
  options.num_mappers = 3;
  options.num_reducers = 4;
  options.num_threads = 2;
  options.emitter_spill_threshold_bytes = 512;
  options.query_label = "qexact_multijob_flight_test";

  Result<MultiJobResult> run = [&] {
    GlobalRegistryOn on;
    return EvaluateMultiJob(wf, table, options);
  }();
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->jobs, wf.num_measures());
  EXPECT_GT(run->total_metrics.emitter_spilled_records, 0);
  ExpectPublishedEqualsMetrics(*MetricsRegistry::Global(), options.query_label,
                               run->total_metrics);
}

// And for a single-pass run answered from its checkpoint: the restore
// counters and the checkpoint volume's DFS deltas publish like the rest.
TEST(FlightRecorderTest, RestoredRunPublishedCountersMatchMetricsExactly) {
  SchemaPtr schema = TestSchema();
  Workflow wf = TestWorkflow(schema);
  Table table = GenerateUniformTable(schema, 800, 59);

  ParallelEvalOptions options;
  options.num_mappers = 3;
  options.num_reducers = 4;
  options.num_threads = 2;
  options.checkpoint.dir = TestDir("restored_ckpt");
  options.checkpoint.volume.block_size_bytes = 256;
  ASSERT_TRUE(EvaluateParallel(wf, table, TestPlan(wf), options).ok());

  options.query_label = "qexact_restored_flight_test";
  Result<ParallelEvalResult> run = [&] {
    GlobalRegistryOn on;
    return EvaluateParallel(wf, table, TestPlan(wf), options);
  }();
  ASSERT_TRUE(run.ok()) << run.status();
  EXPECT_EQ(run->metrics.checkpoint_jobs_restored, 1);
  EXPECT_GT(run->metrics.checkpoint_bytes_restored, 0);
  ExpectPublishedEqualsMetrics(*MetricsRegistry::Global(), options.query_label,
                               run->metrics);
}

}  // namespace
}  // namespace casm
