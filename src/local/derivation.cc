// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "local/derivation.h"

#include <algorithm>
#include <vector>

#include "common/logging.h"

namespace casm {
namespace {

void DeriveExpression(const Workflow& wf, int index,
                      MeasureResultSet* results) {
  const Schema& schema = *wf.schema();
  const Measure& m = wf.measure(index);
  MeasureValueMap& out = results->mutable_values(index);

  // Seed candidate regions from the first self edge (validation guarantees
  // one exists); every other operand must then also be present.
  int seed_edge = -1;
  for (size_t e = 0; e < m.edges.size(); ++e) {
    if (m.edges[e].rel == Relationship::kSelf) {
      seed_edge = static_cast<int>(e);
      break;
    }
  }
  CASM_CHECK_GE(seed_edge, 0) << "expression measures need a self edge";

  const MeasureValueMap& seed =
      results->values(m.edges[static_cast<size_t>(seed_edge)].source);
  std::vector<double> operands(m.edges.size());
  for (const auto& [coords, seed_value] : seed) {
    bool complete = true;
    for (size_t e = 0; e < m.edges.size() && complete; ++e) {
      const MeasureEdge& edge = m.edges[e];
      const Measure& src = wf.measure(edge.source);
      const MeasureValueMap& src_map = results->values(edge.source);
      if (edge.rel == Relationship::kSelf) {
        if (static_cast<int>(e) == seed_edge) {
          operands[e] = seed_value;
          continue;
        }
        auto it = src_map.find(coords);
        if (it == src_map.end()) {
          complete = false;
        } else {
          operands[e] = it->second;
        }
      } else {  // kParentChild
        Coords parent =
            MapRegionUp(schema, m.granularity, coords, src.granularity);
        auto it = src_map.find(parent);
        if (it == src_map.end()) {
          complete = false;
        } else {
          operands[e] = it->second;
        }
      }
    }
    if (complete) out.emplace(coords, m.expr.Eval(operands.data()));
  }
}

void DeriveSourceAggregate(const Workflow& wf, int index,
                           MeasureResultSet* results) {
  const Schema& schema = *wf.schema();
  const Measure& m = wf.measure(index);
  MeasureValueMap& out = results->mutable_values(index);

  CoordsMap<Accumulator> acc;
  auto accumulate = [&](const Coords& coords, double value) {
    acc.try_emplace(coords, m.fn).first->second.Add(value);
  };

  // Phase 1: generating edges.
  for (const MeasureEdge& edge : m.edges) {
    const Measure& src = wf.measure(edge.source);
    const MeasureValueMap& src_map = results->values(edge.source);
    switch (edge.rel) {
      case Relationship::kSelf:
        for (const auto& [coords, value] : src_map) accumulate(coords, value);
        break;
      case Relationship::kChildParent:
        for (const auto& [coords, value] : src_map) {
          accumulate(MapRegionUp(schema, src.granularity, coords,
                                 m.granularity),
                     value);
        }
        break;
      case Relationship::kSibling: {
        const SiblingRange& r = edge.sibling;
        const size_t attr = static_cast<size_t>(r.attr);
        const int64_t domain_max =
            schema.attribute(r.attr).LevelValueCount(
                m.granularity.level(r.attr)) -
            1;
        for (const auto& [coords, value] : src_map) {
          // A source at coordinate c feeds targets in [c - hi, c - lo].
          int64_t first = std::max<int64_t>(0, coords[attr] - r.hi);
          int64_t last = std::min(domain_max, coords[attr] - r.lo);
          Coords target = coords;
          for (int64_t t = first; t <= last; ++t) {
            target[attr] = t;
            accumulate(target, value);
          }
        }
        break;
      }
      case Relationship::kParentChild:
        break;  // phase 2
    }
  }

  // Phase 2: parent/child edges contribute to the generated regions.
  for (const MeasureEdge& edge : m.edges) {
    if (edge.rel != Relationship::kParentChild) continue;
    const Measure& src = wf.measure(edge.source);
    const MeasureValueMap& src_map = results->values(edge.source);
    for (auto& [coords, accumulator] : acc) {
      Coords parent =
          MapRegionUp(schema, m.granularity, coords, src.granularity);
      auto it = src_map.find(parent);
      if (it != src_map.end()) accumulator.Add(it->second);
    }
  }

  FinalizeInto(acc, &out);
}

}  // namespace

void DeriveCompositeMeasure(const Workflow& wf, int index,
                            MeasureResultSet* results) {
  const Measure& m = wf.measure(index);
  switch (m.op) {
    case MeasureOp::kAggregateRecords:
      CASM_CHECK(false) << "basic measures are not derived";
      break;
    case MeasureOp::kExpression:
      DeriveExpression(wf, index, results);
      break;
    case MeasureOp::kAggregateSources:
      DeriveSourceAggregate(wf, index, results);
      break;
  }
}

bool DeriveComposites(const Workflow& wf, MeasureResultSet* results,
                      const CancellationToken* cancel) {
  for (int i = 0; i < wf.num_measures(); ++i) {
    if (cancel != nullptr && cancel->cancelled()) return false;
    if (wf.measure(i).op != MeasureOp::kAggregateRecords) {
      DeriveCompositeMeasure(wf, i, results);
    }
  }
  return true;
}

}  // namespace casm
