// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// One run of one repository-benchmark workload. perfbench/run.py builds
// this binary and launches it once per run (one process per workload run,
// so the peak RSS it reads back belongs to that workload alone):
//
//   casm_perfbench --workload <paper-mix|early-agg>
//                  --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//                  [--spans <file>]
//
// Everything goes through the public API (OptimizePlan, EvaluateParallel,
// QueryService and, for the replays, the module entry points they call)
// and every answer is checked against EvaluateReference under the
// DESIGN.md §16 tolerance. Layers are measured from outside: by timing
// this file's own calls, and by reading the counters and timers those
// calls return (MapReduceMetrics, LocalEvalStats, QueryOutcome,
// QueryServiceStats).
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// splits the run into an untraced pass that yields the per-layer metrics,
// a pass with a TraceRecorder enabled (the tracing overhead), and replays
// of the local, io, ckpt, dfs and data layers on the reference answers.
// On paper-mix it also drives the paper queries through a QueryService,
// the svc layer's replay.
// The last stdout line is one JSON object; diagnostics go to stderr.
// perfbench/NOTES.md documents the workloads and every metric.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/workload.h"
#include "ckpt/checkpoint.h"
#include "common/rng.h"
#include "core/optimizer.h"
#include "core/parallel_evaluator.h"
#include "data/record_batch.h"
#include "io/record_codec.h"
#include "local/derivation.h"
#include "local/reference_evaluator.h"
#include "obs/trace.h"
#include "queries/paper_data.h"
#include "queries/paper_queries.h"
#include "svc/query_service.h"

namespace casm::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

/// DESIGN.md §16: bit-exact integer aggregates, 1e-9 relative otherwise.
constexpr double kAnswerTolerance = 1e-9;
/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetupRepeats = 3;
/// A tail percentile needs at least this many samples beyond it.
constexpr int kTailBeyond = 10;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

/// Median with Python statistics.median semantics (mean of the middle
/// pair for even counts); 0 for an empty sample.
double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank quantile: the smallest sample with at least q*n samples
/// at or below it, so n - ceil(q*n) samples lie beyond it.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t index = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return values[std::min(index, values.size() - 1)];
}

/// Reports the tail percentile's sample count on stderr, and says so when
/// fewer than kTailBeyond samples lie beyond it.
void NoteTail(const std::string& workload, size_t n, double q) {
  const int64_t beyond = static_cast<int64_t>(n) -
                         static_cast<int64_t>(std::ceil(q * static_cast<double>(n)));
  std::fprintf(stderr, "%s: query_tail_s = p%.0f of %zu queries (%lld beyond)%s\n",
               workload.c_str(), 100 * q, n, static_cast<long long>(beyond),
               beyond < kTailBeyond ? "; too few samples beyond the tail" : "");
}

double SafeRatio(double num, double den) { return den > 0 ? num / den : 0; }

int HardwareThreads() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

/// `wanted` threads, capped at nproc.
int EvalThreads(int wanted) {
  return std::max(1, std::min(wanted, HardwareThreads()));
}

// ---------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit) {
    if (!std::isfinite(value)) value = 0;
    metrics_.push_back({std::move(name), value, std::move(unit)});
  }
  void Print(bool correct, int64_t attempted, int64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {",
                correct ? "true" : "false",
                static_cast<long long>(attempted),
                static_cast<long long>(failed));
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                  metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
};

// ------------------------------------------------------------ workloads

struct WorkloadSpec {
  std::string name;
  int64_t rows = 0;
  std::vector<PaperQuery> queries;
  bool early_aggregation = false;
  int mappers = 8;
  int reducers = 8;
  int threads = 4;  // capped at nproc
  /// query_tail_s percentile, fixed per workload so that at least
  /// kTailBeyond samples lie beyond it at the baseline sample count
  /// (NOTES.md gives each workload's choice and count).
  double tail_quantile = 0.92;
};

/// The svc replay of paper-mix's traced run (see NOTES.md for how it was
/// sized).
struct ServiceSpec {
  int64_t rows = 20000;
  int workers = 2;
  int threads_per_worker = 2;
  int mappers = 4;
  int reducers = 4;
  /// Burst phase: queries submitted at once; sharing's scan savings.
  int burst_queries = 40;
  /// Open-loop phase: Poisson arrivals at a fixed rate; queueing.
  int open_queries = 52;
  double open_rate_per_second = 6.5;
};

const std::vector<PaperQuery> kPaperQueries = {
    PaperQuery::kQ1, PaperQuery::kQ2, PaperQuery::kQ3,
    PaperQuery::kQ4, PaperQuery::kQ5, PaperQuery::kQ6};

bool LookupWorkload(const std::string& name, WorkloadSpec* spec) {
  spec->name = name;
  if (name == "paper-mix") {
    spec->rows = 50000;
    spec->queries = kPaperQueries;
    return true;
  }
  if (name == "early-agg") {
    spec->rows = 4000000;
    spec->queries = {PaperQuery::kDS0, PaperQuery::kDS1};
    spec->early_aggregation = true;
    spec->tail_quantile = 0.7;
    return true;
  }
  return false;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir = ".";
  std::string spans;  // Chrome trace JSON of the benchmark's own spans
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value != "0";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--spans") {
      args->spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

/// Errors and wrong answers of one run. Any entry fails the run.
struct Tally {
  int64_t attempted = 0;
  int64_t failed = 0;    // evaluation or submission returned an error
  int64_t rejected = 0;  // the service refused the submission
  int64_t wrong = 0;     // answer differs from the reference

  int64_t bad() const { return failed + rejected + wrong; }
  void Check(const MeasureResultSet& reference, const MeasureResultSet& got,
             const std::string& what) {
    const Status same = CompareResultSets(reference, got, kAnswerTolerance);
    if (!same.ok()) {
      ++wrong;
      std::fprintf(stderr, "wrong answer (%s): %s\n", what.c_str(),
                   same.ToString().c_str());
    }
  }
  void Fail(const Status& status, const std::string& what) {
    ++failed;
    std::fprintf(stderr, "failed (%s): %s\n", what.c_str(),
                 status.ToString().c_str());
  }
};

/// The benchmark's own spans around each public call, kept in memory and
/// written out as Chrome trace JSON when the run ends.
class BenchSpans {
 public:
  BenchSpans() { recorder_.set_enabled(true); }
  double Now() const { return recorder_.NowSeconds(); }
  void Span(const char* name, double start, int64_t query,
            std::string detail = std::string()) {
    recorder_.RecordSpan("bench", name, start, recorder_.NowSeconds(),
                         /*task=*/query, /*attempt=*/0, TraceOutcome::kNone,
                         std::move(detail));
  }
  void Write(const std::string& path) const {
    const Status written = recorder_.WriteJson(path);
    if (!written.ok()) {
      std::fprintf(stderr, "bench spans not written: %s\n",
                   written.ToString().c_str());
    }
  }

 private:
  TraceRecorder recorder_;
};

/// Engine trace volume of a traced pass, drained after every query.
struct TraceDrain {
  int64_t events = 0;
  int64_t dropped = 0;
  int64_t queries = 0;
  void Drain(TraceRecorder* trace, int64_t finished_queries) {
    events += static_cast<int64_t>(trace->Snapshot().size());
    dropped += trace->dropped_events();
    queries += finished_queries;
    trace->Clear();
  }
};

// ---------------------------------------------------------------- set-up

struct Fixture {
  std::unique_ptr<Table> table;
  std::vector<Workflow> workflows;
  std::vector<MeasureResultSet> references;
};

ParallelEvalOptions EvalOptions(const WorkloadSpec& spec,
                                TraceRecorder* trace) {
  ParallelEvalOptions options;
  options.num_mappers = spec.mappers;
  options.num_reducers = spec.reducers;
  options.num_threads = EvalThreads(spec.threads);
  options.trace = trace;
  return options;
}

Result<ExecutionPlan> Optimize(const WorkloadSpec& spec, const Workflow& wf,
                               int64_t rows) {
  OptimizerOptions options;
  options.num_reducers = spec.reducers;
  options.num_records = rows;
  options.early_aggregation = spec.early_aggregation;
  return OptimizePlan(wf, options);
}

QueryServiceOptions ServiceOptions(const ServiceSpec& svc) {
  QueryServiceOptions options;
  options.num_workers = svc.workers;
  options.shared_batching = true;
  options.num_mappers = svc.mappers;
  options.num_reducers = svc.reducers;
  options.num_threads = std::max(
      1, std::min(svc.threads_per_worker, HardwareThreads() / svc.workers));
  return options;
}

/// Starts a service over the fixture's table and warms it up with one
/// query of the first workflow.
Result<std::unique_ptr<QueryService>> StartService(const ServiceSpec& svc,
                                                   const Fixture& fx) {
  auto service = std::make_unique<QueryService>(ServiceOptions(svc));
  QueryRequest request;
  request.workflow = &fx.workflows.front();
  request.table = fx.table.get();
  CASM_ASSIGN_OR_RETURN(QueryService::QueryId id, service->Submit(request));
  CASM_ASSIGN_OR_RETURN(QueryOutcome outcome, service->Wait(id));
  if (!outcome.status.ok()) return outcome.status;
  return service;
}

/// Builds the table and the workflows.
void BuildTable(int64_t rows, const std::vector<PaperQuery>& queries,
                uint64_t seed, Fixture* fixture) {
  fixture->workflows.clear();
  fixture->table.reset();
  fixture->table = std::make_unique<Table>(PaperUniformTable(rows, seed));
  for (PaperQuery q : queries) {
    fixture->workflows.push_back(MakePaperQuery(q, fixture->table->schema()));
  }
}

/// Reference answers, computed outside every timed window.
void ComputeReferences(Fixture* fixture) {
  for (const Workflow& wf : fixture->workflows) {
    fixture->references.push_back(EvaluateReference(wf, *fixture->table));
  }
}

// --------------------------------------------------------------- layers

/// Per-layer metrics every workload prints; the ones a workload does not
/// exercise read 0 (NOTES.md lists which apply where).
struct Layers {
  double optimize_s = 0, eval_wall_s = 0, reduce_other_cpu_s = 0;
  double blocks = 0, filtered_frac = 0;
  double map_wall_s = 0, map_cpu_s = 0, shuffle_sort_cpu_s = 0;
  double reduce_wall_s = 0, pairs_per_row = 0, reducer_imbalance = 0;
  double spilled_bytes = 0, task_retries = 0;
  double sort_cpu_s = 0, eval_cpu_s = 0;
  double blocks_sortscan = 0, blocks_morsel = 0, blocks_radix = 0;
  double merged_partials = 0;
  double svc_queue_p50_s = 0, svc_run_p50_s = 0;
  double svc_scan_passes_per_query = 0, svc_shared_query_frac = 0;
  double svc_shared_fallbacks = 0, svc_plan_cache_hit_rate = 0;
  double svc_admission_waits = 0;
  double trace_overhead_frac = 0, trace_events_per_query = 0;
  double trace_dropped = 0;
  double generator_lag_p90_s = 0, unattributed_frac = 0;
  double cpu_s_per_mrow = 0;
};

/// Sums over queries of the counters and timers the engine returned.
struct EngineSums {
  double queries = 0;
  double map_wall_s = 0, map_cpu_s = 0, shuffle_sort_cpu_s = 0;
  double reduce_wall_s = 0, reduce_other_cpu_s = 0;
  double reducer_imbalance = 0, spilled_bytes = 0, task_retries = 0;
  double emitted_pairs = 0, input_rows = 0;
  LocalEvalStats local;

  void Add(const MapReduceMetrics& m, const LocalEvalStats& own) {
    queries += 1;
    map_wall_s += m.map_seconds;
    map_cpu_s += m.map_cpu_seconds;
    shuffle_sort_cpu_s += m.shuffle_sort_seconds;
    reduce_wall_s += m.reduce_phase_wall_seconds;
    reduce_other_cpu_s +=
        m.reduce_seconds - (own.sort_seconds + own.eval_seconds);
    if (!m.reducer_pairs.empty()) {
      double sum = 0;
      for (int64_t p : m.reducer_pairs) sum += static_cast<double>(p);
      const double mean = sum / static_cast<double>(m.reducer_pairs.size());
      reducer_imbalance +=
          SafeRatio(static_cast<double>(m.MaxReducerPairs()), mean);
    }
    spilled_bytes += static_cast<double>(m.emitter_spilled_bytes);
    task_retries += static_cast<double>(m.task_retries);
    emitted_pairs += static_cast<double>(m.emitted_pairs);
    input_rows += static_cast<double>(m.input_rows);
    local.Accumulate(own);
  }
  /// Per-query means (totals for the counters that should stay 0).
  void Fill(Layers* l) const {
    const double n = queries;
    l->map_wall_s = SafeRatio(map_wall_s, n);
    l->map_cpu_s = SafeRatio(map_cpu_s, n);
    l->shuffle_sort_cpu_s = SafeRatio(shuffle_sort_cpu_s, n);
    l->reduce_wall_s = SafeRatio(reduce_wall_s, n);
    l->reduce_other_cpu_s = SafeRatio(reduce_other_cpu_s, n);
    l->reducer_imbalance = SafeRatio(reducer_imbalance, n);
    l->pairs_per_row = SafeRatio(emitted_pairs, input_rows);
    l->spilled_bytes = spilled_bytes;
    l->task_retries = task_retries;
    l->sort_cpu_s = SafeRatio(local.sort_seconds, n);
    l->eval_cpu_s = SafeRatio(local.eval_seconds, n);
    l->blocks_sortscan =
        SafeRatio(static_cast<double>(local.agg_blocks_sortscan), n);
    l->blocks_morsel = SafeRatio(static_cast<double>(local.agg_blocks_morsel), n);
    l->blocks_radix = SafeRatio(static_cast<double>(local.agg_blocks_radix), n);
    l->merged_partials =
        SafeRatio(static_cast<double>(local.merged_partials), n);
  }
};

// ----------------------------------------------------------- closed loop

/// One query of a closed-loop pass: optimize, then evaluate.
struct QuerySample {
  int query = 0;
  double optimize_s = 0;
  double eval_s = 0;
  double latency_s = 0;  // optimize + evaluate
  MapReduceMetrics metrics;
  LocalEvalStats local;
  int64_t blocks = 0;
  int64_t filtered = 0;
  int64_t results = 0;
};

struct ClosedLoopPass {
  std::vector<QuerySample> samples;
  std::vector<double> round_walls;  // sum of latencies per round
  double busy_s = 0;                // sum of all latencies
  double cpu_s = 0;                 // process CPU inside the timed calls
};

/// Runs whole rounds of the workload's queries until the timed calls add
/// up to `seconds`. Answer checks sit outside the timed calls.
ClosedLoopPass RunClosedLoop(const WorkloadSpec& spec, const Fixture& fx,
                             double seconds, TraceRecorder* trace,
                             BenchSpans* spans, TraceDrain* drain,
                             Tally* tally) {
  ClosedLoopPass pass;
  const int nq = static_cast<int>(fx.workflows.size());
  while (pass.busy_s < seconds) {
    double round_wall = 0;
    for (int q = 0; q < nq; ++q) {
      const Workflow& wf = fx.workflows[static_cast<size_t>(q)];
      const std::string what =
          spec.name + " " + PaperQueryName(spec.queries[static_cast<size_t>(q)]);
      ++tally->attempted;
      QuerySample sample;
      sample.query = q;
      const double span_start = spans->Now();
      double cpu = ProcessCpuSeconds();
      Clock::time_point t = Clock::now();
      Result<ExecutionPlan> plan = Optimize(spec, wf, fx.table->num_rows());
      sample.optimize_s = SecondsSince(t);
      spans->Span("optimize", span_start, q);
      if (!plan.ok()) {
        tally->Fail(plan.status(), what);
        continue;
      }
      const ParallelEvalOptions options = EvalOptions(spec, trace);
      const double eval_start = spans->Now();
      t = Clock::now();
      Result<ParallelEvalResult> run =
          EvaluateParallel(wf, *fx.table, plan.value(), options);
      sample.eval_s = SecondsSince(t);
      pass.cpu_s += ProcessCpuSeconds() - cpu;
      spans->Span("evaluate", eval_start, q);
      if (!run.ok()) {
        tally->Fail(run.status(), what);
        continue;
      }
      tally->Check(fx.references[static_cast<size_t>(q)], run.value().results,
                   what);
      sample.latency_s = sample.optimize_s + sample.eval_s;
      const ParallelEvalResult& out = run.value();
      sample.metrics = out.metrics;
      sample.local = out.local_stats;
      sample.blocks = out.blocks_evaluated;
      sample.filtered = out.results_filtered;
      sample.results = out.results.TotalResults();
      round_wall += sample.latency_s;
      pass.busy_s += sample.latency_s;
      pass.samples.push_back(std::move(sample));
      if (drain != nullptr) drain->Drain(trace, 1);
    }
    pass.round_walls.push_back(round_wall);
  }
  return pass;
}

std::vector<double> Latencies(const ClosedLoopPass& pass) {
  std::vector<double> out;
  for (const QuerySample& s : pass.samples) out.push_back(s.latency_s);
  return out;
}

// --------------------------------------------------------------- service

struct ServicePhase {
  int64_t queries = 0;
  double wall_s = 0;                 // first submit -> last completion
  std::vector<double> latencies;     // from the scheduled send time
  std::vector<double> queue_s;
  std::vector<double> run_s;
  std::vector<double> generator_lag;
  QueryServiceStats before;
  QueryServiceStats after;
};

/// Submits `items` from this (single) thread, each at its scheduled
/// arrival offset, waits for the service to drain, then collects and
/// checks every outcome.
ServicePhase RunServicePhase(QueryService* service, const Fixture& fx,
                             const std::vector<bench::WorkloadItem>& items,
                             BenchSpans* spans, Tally* tally) {
  ServicePhase phase;
  phase.before = service->stats();
  std::vector<QueryService::QueryId> ids;
  std::vector<double> submitted_at;  // seconds since phase start
  std::vector<size_t> item_of;
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < items.size(); ++i) {
    const bench::WorkloadItem& item = items[i];
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(item.arrival_seconds));
    std::this_thread::sleep_until(due);
    const double sent = SecondsSince(start);
    phase.generator_lag.push_back(sent - item.arrival_seconds);
    QueryRequest request;
    request.workflow = &fx.workflows[static_cast<size_t>(item.template_index)];
    request.table = fx.table.get();
    request.priority = item.priority;
    ++tally->attempted;
    const double span_start = spans->Now();
    Result<QueryService::QueryId> id = service->Submit(request);
    spans->Span("submit", span_start, item.template_index);
    if (!id.ok()) {
      ++tally->rejected;
      std::fprintf(stderr, "rejected: %s\n", id.status().ToString().c_str());
      continue;
    }
    ids.push_back(id.value());
    submitted_at.push_back(sent);
    item_of.push_back(i);
  }
  // Drain without pulling answers, so checking them cannot compete with
  // the workers.
  const double wait_start = spans->Now();
  for (;;) {
    const QueryServiceStats s = service->stats();
    const int64_t done = (s.completed + s.failed + s.cancelled + s.expired) -
                         (phase.before.completed + phase.before.failed +
                          phase.before.cancelled + phase.before.expired);
    if (done >= static_cast<int64_t>(ids.size())) break;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
  spans->Span("wait", wait_start, -1);
  phase.after = service->stats();
  phase.queries = static_cast<int64_t>(ids.size());
  // Wait() copies each answer out of the service; one at a time keeps the
  // copies from adding to the retained outcomes' memory.
  for (size_t k = 0; k < ids.size(); ++k) {
    const bench::WorkloadItem& item = items[item_of[k]];
    const std::string what =
        std::string("service ") + PaperQueryName(item.query);
    Result<QueryOutcome> outcome = service->Wait(ids[k]);
    if (!outcome.ok()) {
      tally->Fail(outcome.status(), what);
      continue;
    }
    const QueryOutcome& o = outcome.value();
    if (o.state != QueryState::kDone) {
      tally->Fail(o.status.ok() ? Status::Internal(QueryStateName(o.state))
                                : o.status,
                  what);
      continue;
    }
    tally->Check(fx.references[static_cast<size_t>(item.template_index)],
                 o.results, what);
    const double completed = submitted_at[k] + o.queue_seconds + o.run_seconds;
    phase.wall_s = std::max(phase.wall_s, completed);
    phase.latencies.push_back(completed - item.arrival_seconds);
    phase.queue_s.push_back(o.queue_seconds);
    phase.run_s.push_back(o.run_seconds);
  }
  return phase;
}

/// The Zipf query mix of bench/workload.h (its default templates and
/// exponent) with Poisson arrivals at `rate` (0 = a closed burst), both
/// stratified. Each template occurs its expected number of times
/// (largest-remainder rounding), spread evenly through the sequence with
/// seeded jitter; the inter-arrival gaps are one exponential quantile per
/// stratum, in seeded order. MakeWorkload's i.i.d. draws moved the hot
/// template's share of ~100 queries by +-10%, the make-up of each shared
/// batch (which sets its shared plan) and the number of short gaps, and
/// with them the drain rate and the open-loop tail by up to 2.5x between
/// seeds.
std::vector<bench::WorkloadItem> ServiceItems(uint64_t seed, int count,
                                              double rate) {
  const bench::WorkloadOptions mix;
  const size_t templates = mix.mix.size();
  std::vector<double> weight(templates);
  double total = 0;
  for (size_t i = 0; i < templates; ++i) {
    weight[i] = 1.0 / std::pow(static_cast<double>(i + 1), mix.zipf_s);
    total += weight[i];
  }
  std::vector<int> quota(templates);
  std::vector<std::pair<double, size_t>> remainder;
  int assigned = 0;
  for (size_t i = 0; i < templates; ++i) {
    const double expected = count * weight[i] / total;
    quota[i] = static_cast<int>(std::floor(expected));
    assigned += quota[i];
    remainder.emplace_back(expected - quota[i], i);
  }
  std::sort(remainder.rbegin(), remainder.rend());
  for (size_t r = 0; assigned < count; ++r, ++assigned) {
    ++quota[remainder[r % templates].second];
  }
  // The j-th of template i's c occurrences sits at (j + jitter) / c.
  Rng rng(seed);
  std::vector<std::pair<double, int>> order;
  for (size_t i = 0; i < templates; ++i) {
    for (int j = 0; j < quota[i]; ++j) {
      order.emplace_back((j + rng.UniformDouble()) / quota[i],
                         static_cast<int>(i));
    }
  }
  std::sort(order.begin(), order.end());
  std::vector<double> gaps(static_cast<size_t>(count), 0.0);
  if (rate > 0) {
    for (int k = 0; k < count; ++k) {
      gaps[static_cast<size_t>(k)] =
          -std::log(1.0 - (k + rng.UniformDouble()) / count) / rate;
    }
    for (size_t i = gaps.size(); i > 1; --i) {
      std::swap(gaps[i - 1], gaps[rng.Uniform(i)]);
    }
  }
  std::vector<bench::WorkloadItem> items;
  double clock = 0;
  for (size_t k = 0; k < order.size(); ++k) {
    clock += gaps[k];
    bench::WorkloadItem item;
    item.template_index = order[k].second;
    item.query = mix.mix[static_cast<size_t>(order[k].second)];
    item.arrival_seconds = clock;
    item.priority = 0;
    items.push_back(item);
  }
  return items;
}

// --------------------------------------------------------------- replays

struct Replays {
  double derive_s = 0;      // per distinct query
  double merge_s = 0;
  double result_values = 0;
  double encode_s = 0;
  double bytes_per_value = 0;
  double commit_s = 0;
  double restore_s = 0;
  double restored_frac = 0;  // restores that returned the committed answer
  double disk_bytes_per_payload_byte = 0;
  double scan_rows_per_s = 0;
};

int64_t DirectoryBytes(const std::string& dir) {
  int64_t bytes = 0;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      bytes += static_cast<int64_t>(entry.file_size());
    }
  }
  return bytes;
}

/// Replays single layers on each distinct query's reference answer.
/// `blocks[q]` is how many blocks query q's evaluation produced; the
/// merge replay splits the answer into that many shards.
Replays RunReplays(const Fixture& fx, const std::vector<double>& blocks,
                   const std::string& workdir, BenchSpans* spans,
                   Tally* tally) {
  Replays r;
  const size_t nq = fx.workflows.size();
  int64_t total_values = 0;
  int64_t total_encoded = 0;
  int64_t total_payload = 0;
  const std::string ckpt_dir = workdir + "/ckpt-replay";
  std::filesystem::remove_all(ckpt_dir);
  for (size_t q = 0; q < nq; ++q) {
    const Workflow& wf = fx.workflows[q];
    const MeasureResultSet& ref = fx.references[q];
    const std::string what = "replay q" + std::to_string(q);
    total_values += ref.TotalResults();

    // local: composite derivation from the basic measures.
    MeasureResultSet derived = ref;
    for (int m = 0; m < wf.num_measures(); ++m) {
      if (wf.measure(m).op != MeasureOp::kAggregateRecords) {
        derived.mutable_values(m).clear();
      }
    }
    double start = spans->Now();
    Clock::time_point t = Clock::now();
    for (int m = 0; m < wf.num_measures(); ++m) {
      if (wf.measure(m).op != MeasureOp::kAggregateRecords) {
        DeriveCompositeMeasure(wf, m, &derived);
      }
    }
    r.derive_s += SecondsSince(t);
    spans->Span("replay-derive", start, static_cast<int64_t>(q));
    tally->Check(ref, derived, what + " derive");

    // local: merging one shard per evaluated block.
    const int64_t shards = std::max<int64_t>(
        1, static_cast<int64_t>(std::llround(blocks[q])));
    std::vector<MeasureResultSet> parts(static_cast<size_t>(shards),
                                        MeasureResultSet(wf.num_measures()));
    for (int m = 0; m < wf.num_measures(); ++m) {
      const MeasureValueMap& values = ref.values(m);
      const int64_t n = static_cast<int64_t>(values.size());
      int64_t j = 0;
      for (const auto& [coords, value] : values) {
        const int64_t shard = n > 0 ? j * shards / n : 0;
        parts[static_cast<size_t>(shard)].mutable_values(m).emplace(coords,
                                                                    value);
        ++j;
      }
    }
    MeasureResultSet merged(wf.num_measures());
    start = spans->Now();
    t = Clock::now();
    Status merge_status = Status::OK();
    for (MeasureResultSet& part : parts) {
      Status s = merged.MergeDisjoint(std::move(part));
      if (!s.ok() && merge_status.ok()) merge_status = s;
    }
    r.merge_s += SecondsSince(t);
    spans->Span("replay-merge", start, static_cast<int64_t>(q));
    if (!merge_status.ok()) tally->Fail(merge_status, what + " merge");
    tally->Check(ref, merged, what + " merge");

    // io: canonical encoding.
    start = spans->Now();
    t = Clock::now();
    const std::string encoded = EncodeMeasureResultSet(ref);
    r.encode_s += SecondsSince(t);
    spans->Span("replay-encode", start, static_cast<int64_t>(q));
    total_encoded += static_cast<int64_t>(encoded.size());

    // ckpt + dfs: commit and restore on a scratch volume.
    CheckpointOptions options;
    options.dir = ckpt_dir;
    options.mode = CheckpointMode::kResume;
    Result<CheckpointLog> log =
        CheckpointLog::Open(options, FingerprintQuery(wf, *fx.table));
    if (!log.ok()) {
      tally->Fail(log.status(), what + " open");
      continue;
    }
    start = spans->Now();
    t = Clock::now();
    Result<int64_t> payload = log.value().CommitResultSet("result", ref);
    const double commit = SecondsSince(t);
    spans->Span("replay-commit", start, static_cast<int64_t>(q));
    start = spans->Now();
    t = Clock::now();
    Result<MeasureResultSet> restored =
        log.value().TryRestoreResultSet("result");
    const double restore = SecondsSince(t);
    spans->Span("replay-restore", start, static_cast<int64_t>(q));
    r.commit_s += commit;
    r.restore_s += restore;
    if (!payload.ok()) {
      tally->Fail(payload.status(), what + " commit");
    } else {
      total_payload += payload.value();
    }
    if (!restored.ok()) {
      tally->Fail(restored.status(), what + " restore");
    } else {
      r.restored_frac += 1;
      tally->Check(ref, restored.value(), what + " restore");
    }
  }
  if (std::filesystem::exists(ckpt_dir)) {
    r.disk_bytes_per_payload_byte =
        SafeRatio(static_cast<double>(DirectoryBytes(ckpt_dir)),
                  static_cast<double>(total_payload));
    std::filesystem::remove_all(ckpt_dir);
  }
  const double n = static_cast<double>(nq);
  r.derive_s /= n;
  r.merge_s /= n;
  r.encode_s /= n;
  r.commit_s /= n;
  r.restore_s /= n;
  r.restored_frac /= n;
  r.result_values = static_cast<double>(total_values) / n;
  r.bytes_per_value = SafeRatio(static_cast<double>(total_encoded),
                                static_cast<double>(total_values));

  // data: a full columnar scan of the table, touching every value.
  std::vector<double> rates;
  for (int rep = 0; rep < 3; ++rep) {
    const double start = spans->Now();
    const Clock::time_point t = Clock::now();
    TableScan scan = fx.table->Scan();
    RecordBatch batch(fx.table->row_width(), scan.batch_rows());
    int64_t rows = 0;
    int64_t checksum = 0;
    while (scan.Next(&batch)) {
      for (int c = 0; c < batch.num_columns(); ++c) {
        const int64_t* col = batch.column(c);
        for (int64_t i = 0; i < batch.num_rows(); ++i) checksum += col[i];
      }
      rows += batch.num_rows();
    }
    rates.push_back(static_cast<double>(rows) / SecondsSince(t));
    spans->Span("replay-scan", start, -1,
                "checksum=" + std::to_string(checksum));
    if (rows != fx.table->num_rows()) {
      tally->Fail(Status::Internal("scan row count"), "replay scan");
    }
  }
  r.scan_rows_per_s = Median(rates);
  return r;
}

// ------------------------------------------------------------- metrics

void AddEndToEnd(Report* report, double rows_per_s,
                 const std::vector<double>& latencies, double tail_q,
                 double setup_s, const Tally& tally) {
  report->Add("rows_per_s", rows_per_s, "rows/s");
  report->Add("query_p50_s", Median(latencies), "s");
  report->Add("query_tail_s", Quantile(latencies, tail_q), "s");
  report->Add("setup_s", setup_s, "s");
  report->Add("success_rate",
              1.0 - SafeRatio(static_cast<double>(tally.bad()),
                              static_cast<double>(tally.attempted)),
              "frac");
}

void AddLayers(Report* report, const Layers& l, const Replays& r,
               const Tally& tally) {
  report->Add("core.optimize_s", l.optimize_s, "s");
  report->Add("core.eval_wall_s", l.eval_wall_s, "s");
  report->Add("core.reduce_other_cpu_s", l.reduce_other_cpu_s, "s");
  report->Add("core.blocks", l.blocks, "count");
  report->Add("core.filtered_frac", l.filtered_frac, "frac");
  report->Add("mr.map_wall_s", l.map_wall_s, "s");
  report->Add("mr.map_cpu_s", l.map_cpu_s, "s");
  report->Add("mr.shuffle_sort_cpu_s", l.shuffle_sort_cpu_s, "s");
  report->Add("mr.reduce_wall_s", l.reduce_wall_s, "s");
  report->Add("mr.pairs_per_row", l.pairs_per_row, "ratio");
  report->Add("mr.reducer_imbalance", l.reducer_imbalance, "ratio");
  report->Add("mr.spilled_bytes", l.spilled_bytes, "bytes");
  report->Add("mr.task_retries", l.task_retries, "count");
  report->Add("agg.sort_cpu_s", l.sort_cpu_s, "s");
  report->Add("agg.eval_cpu_s", l.eval_cpu_s, "s");
  report->Add("agg.blocks_sortscan", l.blocks_sortscan, "count");
  report->Add("agg.blocks_morsel", l.blocks_morsel, "count");
  report->Add("agg.blocks_radix", l.blocks_radix, "count");
  report->Add("agg.merged_partials", l.merged_partials, "count");
  report->Add("local.derive_s", r.derive_s, "s");
  report->Add("local.merge_s", r.merge_s, "s");
  report->Add("local.result_values", r.result_values, "count");
  report->Add("data.scan_rows_per_s", r.scan_rows_per_s, "rows/s");
  report->Add("io.encode_s", r.encode_s, "s");
  report->Add("io.bytes_per_value", r.bytes_per_value, "bytes");
  report->Add("ckpt.commit_s", r.commit_s, "s");
  report->Add("ckpt.restore_s", r.restore_s, "s");
  report->Add("ckpt.restored_frac", r.restored_frac, "frac");
  report->Add("dfs.disk_bytes_per_payload_byte", r.disk_bytes_per_payload_byte,
              "ratio");
  report->Add("svc.queue_p50_s", l.svc_queue_p50_s, "s");
  report->Add("svc.run_p50_s", l.svc_run_p50_s, "s");
  report->Add("svc.scan_passes_per_query", l.svc_scan_passes_per_query,
              "ratio");
  report->Add("svc.shared_query_frac", l.svc_shared_query_frac, "frac");
  report->Add("svc.shared_fallbacks", l.svc_shared_fallbacks, "count");
  report->Add("svc.plan_cache_hit_rate", l.svc_plan_cache_hit_rate, "frac");
  report->Add("svc.admission_waits", l.svc_admission_waits, "count");
  report->Add("obs.trace_overhead_frac", l.trace_overhead_frac, "frac");
  report->Add("obs.trace_events_per_query", l.trace_events_per_query,
              "count");
  report->Add("obs.trace_dropped", l.trace_dropped, "count");
  report->Add("bench.generator_lag_p90_s", l.generator_lag_p90_s, "s");
  report->Add("bench.unattributed_frac", l.unattributed_frac, "frac");
  report->Add("proc.cpu_s_per_mrow", l.cpu_s_per_mrow, "s");
  report->Add("error_rate",
              SafeRatio(static_cast<double>(tally.bad()),
                        static_cast<double>(tally.attempted)),
              "frac");
}

/// Per-query means of the counters a closed-loop pass returned, plus the
/// layer-sum self-check.
Layers ClosedLoopLayers(const WorkloadSpec& spec, const ClosedLoopPass& pass) {
  Layers l;
  const double n = static_cast<double>(pass.samples.size());
  if (n == 0) return l;
  EngineSums sums;
  double filtered = 0, produced = 0, attributed = 0;
  for (const QuerySample& s : pass.samples) {
    const MapReduceMetrics& m = s.metrics;
    sums.Add(m, s.local);
    l.optimize_s += s.optimize_s / n;
    l.eval_wall_s += s.eval_s / n;
    l.blocks += static_cast<double>(s.blocks) / n;
    filtered += static_cast<double>(s.filtered);
    produced += static_cast<double>(s.filtered + s.results);
    // Blocking path: optimize, map phase, reduce phase.
    attributed += s.optimize_s + m.map_seconds + m.reduce_phase_wall_seconds;
  }
  sums.Fill(&l);
  l.filtered_frac = SafeRatio(filtered, produced);
  l.unattributed_frac = 1.0 - SafeRatio(attributed, pass.busy_s);
  l.cpu_s_per_mrow =
      SafeRatio(pass.cpu_s, n * static_cast<double>(spec.rows) / 1e6);
  return l;
}

// ------------------------------------------------------------ workloads

/// Sets up kSetupRepeats times and returns each set-up's wall time. A
/// set-up builds the table and the workflows, then warms up by running the
/// first query once. The last set-up's fixture is kept.
std::vector<double> Setup(const WorkloadSpec& spec, uint64_t seed,
                          Fixture* fx, Status* status) {
  std::vector<double> times;
  for (int rep = 0; rep < kSetupRepeats && status->ok(); ++rep) {
    const Clock::time_point t = Clock::now();
    BuildTable(spec.rows, spec.queries, seed, fx);
    const Workflow& first = fx->workflows.front();
    Result<ExecutionPlan> plan = Optimize(spec, first, spec.rows);
    if (!plan.ok()) {
      *status = plan.status();
    } else {
      Result<ParallelEvalResult> run = EvaluateParallel(
          first, *fx->table, plan.value(), EvalOptions(spec, nullptr));
      if (!run.ok()) *status = run.status();
    }
    times.push_back(SecondsSince(t));
  }
  if (!status->ok()) return times;
  const Clock::time_point ref_start = Clock::now();
  ComputeReferences(fx);
  std::fprintf(stderr, "%s: set-up %.3fs x%d, reference answers %.3fs\n",
               spec.name.c_str(), Median(times), kSetupRepeats,
               SecondsSince(ref_start));
  return times;
}

/// The svc layer's replay in paper-mix's traced run: the paper queries
/// through a QueryService over a 20k-row table, first as a burst (shared
/// scans), then as an open loop (queueing). Fills the svc.* metrics and
/// the generator lag.
void MeasureServiceLayer(uint64_t seed, BenchSpans* spans, Tally* tally,
                         Layers* l) {
  const ServiceSpec svc;
  Fixture fx;
  BuildTable(svc.rows, kPaperQueries, seed, &fx);
  ComputeReferences(&fx);
  const uint64_t mix_seed = seed * 0x9e3779b97f4a7c15ULL;
  ServicePhase phases[2];
  for (int p = 0; p < 2; ++p) {
    // The service keeps every outcome for Wait() until it is destroyed,
    // so each phase gets a fresh one.
    Result<std::unique_ptr<QueryService>> service = StartService(svc, fx);
    if (!service.ok()) {
      tally->Fail(service.status(), "service start");
      return;
    }
    phases[p] = RunServicePhase(
        service.value().get(), fx,
        p == 0 ? ServiceItems(mix_seed + 1, svc.burst_queries, 0)
               : ServiceItems(mix_seed + 2, svc.open_queries,
                              svc.open_rate_per_second),
        spans, tally);
  }
  const ServicePhase& b = phases[0];
  const ServicePhase& o = phases[1];
  const auto delta = [&](int64_t QueryServiceStats::*field) {
    return static_cast<double>((b.after.*field - b.before.*field) +
                               (o.after.*field - o.before.*field));
  };
  l->svc_queue_p50_s = Median(o.queue_s);
  l->svc_run_p50_s = Median(o.run_s);
  l->svc_scan_passes_per_query =
      SafeRatio(static_cast<double>(b.after.scan_passes - b.before.scan_passes),
                static_cast<double>(b.queries));
  l->svc_shared_query_frac = SafeRatio(
      static_cast<double>(b.after.shared_queries - b.before.shared_queries),
      static_cast<double>(b.queries));
  l->svc_shared_fallbacks = delta(&QueryServiceStats::shared_fallbacks);
  const double hits = delta(&QueryServiceStats::plan_cache_hits);
  l->svc_plan_cache_hit_rate =
      SafeRatio(hits, hits + delta(&QueryServiceStats::plan_cache_misses));
  l->svc_admission_waits = delta(&QueryServiceStats::admission_waits);
  l->generator_lag_p90_s = Quantile(o.generator_lag, 0.9);
  std::fprintf(stderr,
               "service: burst of %lld drained at %.1f q/s in %lld scan "
               "passes; open loop %lld at %.1f q/s: p50 %.3fs, p90 %.3fs\n",
               static_cast<long long>(b.queries),
               SafeRatio(static_cast<double>(b.queries), b.wall_s),
               static_cast<long long>(b.after.scan_passes -
                                      b.before.scan_passes),
               static_cast<long long>(o.queries), svc.open_rate_per_second,
               Median(o.latencies), Quantile(o.latencies, 0.9));
}

int RunWorkload(const WorkloadSpec& spec, const Args& args) {
  Fixture fx;
  Status status = Status::OK();
  const std::vector<double> setup = Setup(spec, args.seed, &fx, &status);
  if (!status.ok()) {
    std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
    return 1;
  }
  Tally tally;
  BenchSpans spans;
  Report report;
  bool layers_add_up = true;
  const double rows = static_cast<double>(spec.rows);
  if (!args.trace) {
    const ClosedLoopPass pass =
        RunClosedLoop(spec, fx, args.seconds, nullptr, &spans, nullptr, &tally);
    const std::vector<double> lat = Latencies(pass);
    const double tail_q = spec.tail_quantile;
    NoteTail(spec.name, lat.size(), tail_q);
    // Rows answered per second of the median round: a round is one pass
    // over the query list, so a hiccup in one round does not move it.
    AddEndToEnd(&report,
                SafeRatio(rows * static_cast<double>(fx.workflows.size()),
                          Median(pass.round_walls)),
                lat, tail_q, Median(setup), tally);
  } else {
    const ClosedLoopPass plain = RunClosedLoop(spec, fx, args.seconds / 2,
                                               nullptr, &spans, nullptr,
                                               &tally);
    TraceRecorder recorder;
    recorder.set_enabled(true);
    TraceDrain drain;
    const ClosedLoopPass traced = RunClosedLoop(
        spec, fx, args.seconds / 2, &recorder, &spans, &drain, &tally);
    std::vector<double> blocks(fx.workflows.size(), 0);
    std::vector<double> counts(fx.workflows.size(), 0);
    for (const QuerySample& s : plain.samples) {
      blocks[static_cast<size_t>(s.query)] += static_cast<double>(s.blocks);
      counts[static_cast<size_t>(s.query)] += 1;
    }
    for (size_t q = 0; q < blocks.size(); ++q) {
      blocks[q] = SafeRatio(blocks[q], counts[q]);
    }
    const Replays replays =
        RunReplays(fx, blocks, args.workdir, &spans, &tally);
    Layers l = ClosedLoopLayers(spec, plain);
    l.trace_overhead_frac =
        SafeRatio(Median(traced.round_walls), Median(plain.round_walls)) - 1;
    l.trace_events_per_query = SafeRatio(static_cast<double>(drain.events),
                                         static_cast<double>(drain.queries));
    l.trace_dropped = static_cast<double>(drain.dropped);
    if (spec.name == "paper-mix") MeasureServiceLayer(args.seed, &spans, &tally, &l);
    AddLayers(&report, l, replays, tally);
    std::fprintf(stderr,
                 "%s design: map/eval=%.3f reduce-side cpu=%.3fs "
                 "map+shuffle cpu=%.3fs unattributed=%.3f\n",
                 spec.name.c_str(), SafeRatio(l.map_wall_s, l.eval_wall_s),
                 l.reduce_other_cpu_s + l.sort_cpu_s + l.eval_cpu_s,
                 l.map_cpu_s + l.shuffle_sort_cpu_s, l.unattributed_frac);
    // ROADMAP aim 1: the blocking-path layers must add up to the wall.
    if (std::fabs(l.unattributed_frac) > 0.10) {
      std::fprintf(stderr,
                   "layer-sum self-check failed: %.1f%% of the wall time is "
                   "not covered by the blocking-path layers\n",
                   100 * l.unattributed_frac);
      layers_add_up = false;
    }
  }
  if (!args.spans.empty()) spans.Write(args.spans);
  report.Print(tally.bad() == 0 && layers_add_up, tally.attempted,
               tally.bad());
  return 0;
}

}  // namespace
}  // namespace casm::perfbench

int main(int argc, char** argv) {
  using namespace casm::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: casm_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --workdir <dir> "
                 "[--spans <file>]\n");
    return 2;
  }
  WorkloadSpec spec;
  if (!LookupWorkload(args.workload, &spec)) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  std::filesystem::create_directories(args.workdir);
  return RunWorkload(spec, args);
}
