// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "core/skew.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"
#include "core/keygen.h"
#include "cube/coords_map.h"
#include "mr/engine.h"

namespace casm {

std::vector<int64_t> SimulateDispatch(const Workflow& wf, const Table& table,
                                      const ExecutionPlan& plan,
                                      int num_reducers,
                                      const SamplingOptions& options) {
  CASM_CHECK_GE(num_reducers, 1);
  const Schema& schema = *wf.schema();
  const int num_attrs = schema.num_attributes();
  const std::vector<KeyGenAttr> keygen = BuildKeyGen(schema, plan);

  std::vector<int64_t> loads(static_cast<size_t>(num_reducers), 0);
  Rng rng(options.seed);
  const double fraction = std::clamp(options.sample_fraction, 1e-6, 1.0);
  const bool sample_all = fraction >= 1.0;

  std::vector<int64_t> g(static_cast<size_t>(num_attrs));
  std::vector<int64_t> key(static_cast<size_t>(num_attrs));
  int64_t sampled = 0;
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    if (!sample_all && rng.UniformDouble() >= fraction) continue;
    ++sampled;
    const int64_t* row = table.row(r);
    for (int a = 0; a < num_attrs; ++a) {
      g[static_cast<size_t>(a)] = schema.attribute(a).MapFromFinest(
          row[a], keygen[static_cast<size_t>(a)].level);
    }
    ForEachBlock(keygen, g, &key, [&](const int64_t* k) {
      ++loads[static_cast<size_t>(PartitionHash(k, num_attrs) %
                                  static_cast<uint64_t>(num_reducers))];
    });
  }

  // Scale back to the full input.
  if (sampled > 0) {
    const double scale =
        static_cast<double>(table.num_rows()) / static_cast<double>(sampled);
    for (int64_t& load : loads) {
      load = static_cast<int64_t>(static_cast<double>(load) * scale);
    }
  }
  return loads;
}

double EstimateBlockOccupancy(const Workflow& wf, const Table& table,
                              const ExecutionPlan& plan,
                              const SamplingOptions& options) {
  const Schema& schema = *wf.schema();
  const int num_attrs = schema.num_attributes();
  const std::vector<KeyGenAttr> keygen = BuildKeyGen(schema, plan);

  Rng rng(options.seed);
  const double fraction = std::clamp(options.sample_fraction, 1e-6, 1.0);
  const bool sample_all = fraction >= 1.0;

  CoordsMap<bool> touched;
  std::vector<int64_t> g(static_cast<size_t>(num_attrs));
  std::vector<int64_t> key(static_cast<size_t>(num_attrs));
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    if (!sample_all && rng.UniformDouble() >= fraction) continue;
    const int64_t* row = table.row(r);
    for (int a = 0; a < num_attrs; ++a) {
      g[static_cast<size_t>(a)] = schema.attribute(a).MapFromFinest(
          row[a], keygen[static_cast<size_t>(a)].level);
    }
    // Count only the owning block: occupancy measures where the *data*
    // lives, independent of the replication width.
    Coords owner(static_cast<size_t>(num_attrs));
    for (int a = 0; a < num_attrs; ++a) {
      owner[static_cast<size_t>(a)] =
          FloorDiv(g[static_cast<size_t>(a)], keygen[static_cast<size_t>(a)].cf);
    }
    touched.try_emplace(owner);
  }
  const int64_t total = plan.NumBlocks(schema);
  if (total <= 0) return 1.0;
  return std::min(1.0, static_cast<double>(touched.size()) /
                           static_cast<double>(total));
}

double SkewRatio(const std::vector<int64_t>& loads) {
  if (loads.empty()) return 1.0;
  int64_t max_load = 0;
  int64_t total = 0;
  for (int64_t l : loads) {
    max_load = std::max(max_load, l);
    total += l;
  }
  if (total == 0) return 1.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(loads.size());
  return static_cast<double>(max_load) / mean;
}

Result<ExecutionPlan> ChoosePlanBySampling(
    const Workflow& wf, const Table& table,
    const std::vector<ExecutionPlan>& candidates, int num_reducers,
    const SamplingOptions& options) {
  if (candidates.empty()) {
    return Status::InvalidArgument("no candidate plans to sample");
  }
  const ExecutionPlan* best = nullptr;
  int64_t best_max = 0;
  for (const ExecutionPlan& plan : candidates) {
    std::vector<int64_t> loads =
        SimulateDispatch(wf, table, plan, num_reducers, options);
    int64_t max_load = 0;
    for (int64_t l : loads) max_load = std::max(max_load, l);
    if (best == nullptr || max_load < best_max) {
      best = &plan;
      best_max = max_load;
    }
  }
  ExecutionPlan chosen = *best;
  chosen.predicted_max_load = static_cast<double>(best_max);
  return chosen;
}

}  // namespace casm
