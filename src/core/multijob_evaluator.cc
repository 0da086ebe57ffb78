// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "core/multijob_evaluator.h"

#include <algorithm>
#include <bit>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/logging.h"
#include "core/keygen.h"
#include "core/query_run.h"
#include "data/record_batch.h"
#include "mr/engine.h"
#include "mr/external_sort.h"
#include "obs/trace.h"

namespace casm {
namespace {

/// Prefixes a failed job's status with which measure/job it belonged to;
/// the engine message below it names the failing phase and task.
Status AnnotateJobError(const Status& s, const char* kind,
                        const std::string& measure_name, int job_index) {
  return Status(s.code(), std::string("multi-job evaluation: ") + kind +
                              " job for measure '" + measure_name + "' (job " +
                              std::to_string(job_index) +
                              ") failed: " + s.message());
}

/// Runs job `index` of the sequence (a `kind` job repartitioning
/// `num_input` rows by `key`) under a "job" trace span: completes `spec`'s
/// shared settings and moves the measure's values, assembled from
/// `shards` at the job's commit, into `results`. `spec` brings the job's
/// map and reduce functions and value width; `options` are the run's
/// QueryRun::JobOptions().
Status RunJob(const char* kind, const Workflow& wf, int index,
              const Granularity& key, int64_t num_input,
              const ParallelEvalOptions& options, MapReduceEngine* engine,
              MapReduceSpec* spec, ResultShards* shards,
              MeasureResultSet* results, MapReduceMetrics* total) {
  const Schema& schema = *wf.schema();
  const Measure& m = wf.measure(index);
  spec->num_mappers = options.num_mappers;
  spec->num_reducers = options.num_reducers;
  spec->key_width = schema.num_attributes();
  ApplyEngineOptions(options, spec);
  spec->job_commit_fn = [shards] { shards->Assemble(); };
  TraceRecorder* const trace = options.trace;
  const bool tracing = trace->enabled();
  const double job_start = tracing ? trace->NowSeconds() : 0;
  Result<MapReduceMetrics> run = engine->Run(*spec, num_input);
  if (tracing) {
    trace->RecordSpan("job", std::string(kind) + " " + m.name, job_start,
                      trace->NowSeconds(), /*task=*/-1, /*attempt=*/0,
                      run.ok() ? TraceOutcome::kOk : TraceOutcome::kFailed,
                      "key=" + key.ToString(schema), /*job=*/index);
  }
  if (!run.ok()) return AnnotateJobError(run.status(), kind, m.name, index);
  ResultShards::Total& job = shards->total();
  if (!job.first_error.ok()) {
    return AnnotateJobError(job.first_error, kind, m.name, index);
  }
  results->mutable_values(index) =
      std::move(job.results.mutable_values(index));
  total->Accumulate(run.value());
  return Status::OK();
}

/// Evaluates one basic measure with its own repartition-the-raw-data job.
Status RunBasicJob(const Workflow& wf, int index, const Table& table,
                   const ParallelEvalOptions& options, MapReduceEngine* engine,
                   MeasureResultSet* results, MapReduceMetrics* total) {
  const Schema& schema = *wf.schema();
  const Measure& m = wf.measure(index);
  const int num_attrs = schema.num_attributes();
  // The record's region at the measure's granularity is its key: a keygen
  // at that granularity with no annotation maps each record to one block.
  std::vector<KeyGenAttr> keygen(static_cast<size_t>(num_attrs));
  for (int a = 0; a < num_attrs; ++a) {
    keygen[static_cast<size_t>(a)].level = m.granularity.level(a);
  }

  ResultShards shards(wf.num_measures(), options.num_reducers);

  MapReduceSpec spec;
  spec.value_width = 1;
  spec.map_fn = [&](int64_t begin, int64_t end, Emitter* emitter) {
    ScanKeyLevels(schema, table, keygen, options.local_agg.batch_rows, begin,
                  end, *emitter,
                  [&](const int64_t* const* levels, int64_t, int64_t n,
                      const RecordBatch& batch) {
                    emitter->EmitBatch(levels, batch.column(m.field), n);
                  });
  };
  spec.reduce_fn = [&](int reducer, const GroupView& group) {
    Accumulator acc(m.fn);
    for (int64_t i = 0; i < group.size(); ++i) {
      if ((i & 4095) == 0 && group.cancelled()) return;
      acc.Add(static_cast<double>(group.value(i)[0]));
    }
    shards.Add(reducer, index, Coords(group.key(), group.key() + num_attrs),
               acc.Result());
  };
  return RunJob("basic", wf, index, m.granularity, table.num_rows(), options,
                engine, &spec, &shards, results, total);
}

/// Evaluates one composite measure by repartitioning its sources' results
/// (a parallel join). Input rows: [edge_id, source coords..., value-bits].
Status RunCompositeJob(const Workflow& wf, int index,
                       const ParallelEvalOptions& options,
                       MapReduceEngine* engine, MeasureResultSet* results,
                       MapReduceMetrics* total) {
  const Schema& schema = *wf.schema();
  const Measure& m = wf.measure(index);
  const int num_attrs = schema.num_attributes();
  const int row_width = 1 + num_attrs + 1;

  // Join key granularity: the LCA of the target and every parent-edge
  // source (values joining "downwards" must share a group with their
  // children).
  Granularity join_gran = m.granularity;
  for (const MeasureEdge& e : m.edges) {
    if (e.rel == Relationship::kParentChild) {
      join_gran = Granularity::Lca(join_gran, wf.measure(e.source).granularity);
    }
  }

  // Materialize the job input: one row per (edge, source result). The
  // rows come out in the source maps' insertion order, which differs
  // between a computed map and one restored from a checkpoint (the codec
  // stores entries sorted); sort them into (edge, coords) order so a
  // resumed run feeds every downstream job bit-identical float
  // accumulation sequences.
  std::vector<int64_t> input;
  for (size_t ei = 0; ei < m.edges.size(); ++ei) {
    const MeasureEdge& e = m.edges[ei];
    for (const auto& [coords, value] : results->values(e.source)) {
      input.push_back(static_cast<int64_t>(ei));
      input.insert(input.end(), coords.begin(), coords.end());
      input.push_back(std::bit_cast<int64_t>(value));
    }
  }
  input = SortRecords(std::move(input), row_width,
                      [row_width](const int64_t* a, const int64_t* b) {
                        return std::lexicographical_compare(
                            a, a + row_width, b, b + row_width);
                      });
  const int64_t num_input = static_cast<int64_t>(input.size()) / row_width;

  ResultShards shards(wf.num_measures(), options.num_reducers);

  MapReduceSpec spec;
  spec.value_width = row_width;  // [edge, target-or-parent coords, bits]
  spec.map_fn = [&](int64_t begin, int64_t end, Emitter* emitter) {
    std::vector<int64_t> value(static_cast<size_t>(row_width));
    for (int64_t r = begin; r < end; ++r) {
      if (((r - begin) & 1023) == 0 && emitter->cancelled()) return;
      const int64_t* row = input.data() + r * row_width;
      const size_t ei = static_cast<size_t>(row[0]);
      const MeasureEdge& e = m.edges[ei];
      const Measure& src = wf.measure(e.source);
      Coords coords(row + 1, row + 1 + num_attrs);
      value[0] = row[0];
      value[static_cast<size_t>(row_width) - 1] = row[row_width - 1];
      auto emit_for = [&](const Coords& target_or_parent,
                          const Granularity& gran) {
        Coords key = MapRegionUp(schema, gran, target_or_parent, join_gran);
        std::copy(target_or_parent.begin(), target_or_parent.end(),
                  value.begin() + 1);
        emitter->Emit(key.data(), value.data());
      };
      switch (e.rel) {
        case Relationship::kSelf:
          emit_for(coords, m.granularity);
          break;
        case Relationship::kChildParent:
          emit_for(MapRegionUp(schema, src.granularity, coords, m.granularity),
                   m.granularity);
          break;
        case Relationship::kParentChild:
          emit_for(coords, src.granularity);
          break;
        case Relationship::kSibling: {
          // Map-side window expansion: a source at c feeds targets in
          // [c - hi, c - lo], clipped to the domain.
          const SiblingRange& range = e.sibling;
          const size_t attr = static_cast<size_t>(range.attr);
          const int64_t domain_max =
              schema.attribute(range.attr)
                  .LevelValueCount(m.granularity.level(range.attr)) -
              1;
          int64_t first = std::max<int64_t>(0, coords[attr] - range.hi);
          int64_t last = std::min(domain_max, coords[attr] - range.lo);
          Coords target = coords;
          for (int64_t t = first; t <= last; ++t) {
            target[attr] = t;
            emit_for(target, m.granularity);
          }
          break;
        }
      }
    }
  };
  spec.reduce_fn = [&](int reducer, const GroupView& group) {
    // Split the group's rows per edge.
    std::vector<CoordsMap<double>> by_edge(m.edges.size());
    std::vector<std::vector<std::pair<Coords, double>>> contributions(
        m.edges.size());
    for (int64_t i = 0; i < group.size(); ++i) {
      if ((i & 4095) == 0 && group.cancelled()) return;
      const int64_t* v = group.value(i);
      const size_t ei = static_cast<size_t>(v[0]);
      Coords coords(v + 1, v + 1 + num_attrs);
      double value = std::bit_cast<double>(v[row_width - 1]);
      if (m.edges[ei].rel == Relationship::kParentChild) {
        by_edge[ei].emplace(std::move(coords), value);
      } else {
        contributions[ei].emplace_back(std::move(coords), value);
      }
    }

    MeasureValueMap local;
    if (m.op == MeasureOp::kExpression) {
      // Seed with the first self edge; gather the other operands.
      size_t seed = 0;
      for (size_t ei = 0; ei < m.edges.size(); ++ei) {
        if (m.edges[ei].rel == Relationship::kSelf) {
          seed = ei;
          break;
        }
      }
      // Index non-seed self edges for lookup.
      std::vector<CoordsMap<double>> self_maps(m.edges.size());
      for (size_t ei = 0; ei < m.edges.size(); ++ei) {
        if (ei == seed || m.edges[ei].rel != Relationship::kSelf) continue;
        for (auto& [coords, value] : contributions[ei]) {
          self_maps[ei].emplace(coords, value);
        }
      }
      std::vector<double> operands(m.edges.size());
      for (const auto& [coords, seed_value] : contributions[seed]) {
        bool complete = true;
        for (size_t ei = 0; ei < m.edges.size() && complete; ++ei) {
          const MeasureEdge& e = m.edges[ei];
          if (ei == seed) {
            operands[ei] = seed_value;
          } else if (e.rel == Relationship::kSelf) {
            auto it = self_maps[ei].find(coords);
            if (it == self_maps[ei].end()) {
              complete = false;
            } else {
              operands[ei] = it->second;
            }
          } else {  // kParentChild
            Coords parent = MapRegionUp(schema, m.granularity, coords,
                                        wf.measure(e.source).granularity);
            auto it = by_edge[ei].find(parent);
            if (it == by_edge[ei].end()) {
              complete = false;
            } else {
              operands[ei] = it->second;
            }
          }
        }
        if (complete) local.emplace(coords, m.expr.Eval(operands.data()));
      }
    } else {  // kAggregateSources
      CoordsMap<Accumulator> acc;
      for (size_t ei = 0; ei < m.edges.size(); ++ei) {
        if (m.edges[ei].rel == Relationship::kParentChild) continue;
        for (const auto& [coords, value] : contributions[ei]) {
          acc.try_emplace(coords, m.fn).first->second.Add(value);
        }
      }
      for (size_t ei = 0; ei < m.edges.size(); ++ei) {
        if (m.edges[ei].rel != Relationship::kParentChild) continue;
        const Measure& src = wf.measure(m.edges[ei].source);
        for (auto& [coords, accumulator] : acc) {
          Coords parent =
              MapRegionUp(schema, m.granularity, coords, src.granularity);
          auto it = by_edge[ei].find(parent);
          if (it != by_edge[ei].end()) accumulator.Add(it->second);
        }
      }
      FinalizeInto(acc, &local);
    }

    if (group.cancelled()) return;
    shards.Add(reducer, index, local);
  };
  return RunJob("composite", wf, index, join_gran, num_input, options, engine,
                &spec, &shards, results, total);
}

}  // namespace

Result<MultiJobResult> EvaluateMultiJob(const Workflow& wf,
                                        const Table& table,
                                        const ParallelEvalOptions& options) {
  if (options.phase != ParallelEvalPhase::kFull) {
    return Status::InvalidArgument(
        "the multi-job baseline only supports full evaluation");
  }
  QueryRun run({&wf}, table, options);
  // Open the checkpoint log up front so restore verification (entry
  // scan, fingerprint check, block checksums) happens before any work.
  if (Status s = run.OpenCheckpoint(); !s.ok()) return run.Fail(s);
  MapReduceEngine engine(options.num_threads);
  MultiJobResult out;
  out.results = MeasureResultSet(wf.num_measures());

  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < wf.num_measures(); ++i) {
    const std::string& name = wf.measure(i).name;
    // Restore before spending any deadline budget: a resumed run should
    // finish even when the leftover budget could not re-run the restored
    // jobs. A failed restore simply recomputes — corruption must never
    // surface as wrong results.
    if (Result<MeasureValueMap> restored = run.RestoreJob(i, name);
        restored.ok()) {
      out.results.mutable_values(i) = std::move(restored).value();
      ++out.jobs_restored;
      continue;
    }
    // The caller's deadline budgets the whole job sequence: each job gets
    // what the previous jobs left over, and a sequence that exhausts the
    // budget between jobs fails here rather than starting one that cannot
    // meaningfully finish.
    ParallelEvalOptions job_options = run.JobOptions();
    if (options.deadline_seconds > 0) {
      const double remaining = options.deadline_seconds - SecondsSince(start);
      if (remaining <= 0) {
        return run.Fail(Status::DeadlineExceeded(
            "multi-job evaluation: deadline exceeded after " +
            std::to_string(out.jobs) + " of " +
            std::to_string(wf.num_measures()) + " jobs"));
      }
      job_options.deadline_seconds = remaining;
    }
    Status job_status =
        wf.measure(i).op == MeasureOp::kAggregateRecords
            ? RunBasicJob(wf, i, table, job_options, &engine, &out.results,
                          &out.total_metrics)
            : RunCompositeJob(wf, i, job_options, &engine, &out.results,
                              &out.total_metrics);
    if (!job_status.ok()) return run.Fail(job_status);
    ++out.jobs;
    // Commit the finished job before starting the next one; after an OK
    // commit a crash cannot lose it.
    run.CommitJob(i, name, out.results.values(i));
  }
  run.Finish(&out.total_metrics);
  return out;
}

}  // namespace casm
