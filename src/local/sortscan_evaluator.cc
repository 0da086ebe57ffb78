// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "local/sortscan_evaluator.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <unordered_map>

#include "common/clock.h"
#include "common/logging.h"
#include "local/derivation.h"

namespace casm {

SortScanEvaluator::SortScanEvaluator(const Workflow* wf) : wf_(wf) {
  ChoosePlan();
}

void SortScanEvaluator::ChoosePlan() {
  const Schema& schema = *wf_->schema();
  const int num_attrs = schema.num_attributes();

  // Sort level per attribute: the finest level any measure groups by.
  sort_levels_.resize(static_cast<size_t>(num_attrs));
  for (int a = 0; a < num_attrs; ++a) {
    LevelId finest = schema.attribute(a).all_level();
    for (const Measure& m : wf_->measures()) {
      finest = std::min(finest, m.granularity.level(a));
    }
    sort_levels_[static_cast<size_t>(a)] = finest;
  }

  std::vector<int> candidates;
  for (int a = 0; a < num_attrs; ++a) {
    if (!schema.attribute(a).is_all(sort_levels_[static_cast<size_t>(a)])) {
      candidates.push_back(a);
    }
  }

  // Search attribute permutations for the order streaming the most basic
  // measures ([4]'s shared-sort-order optimization). Factorial search is
  // fine up to 7 sort attributes; beyond that keep schema order.
  attr_order_ = candidates;
  if (candidates.size() >= 2 && candidates.size() <= 7) {
    std::vector<int> perm = candidates;
    std::sort(perm.begin(), perm.end());
    int best = -1;
    do {
      int score = CountStreamable(perm);
      if (score > best) {
        best = score;
        attr_order_ = perm;
      }
    } while (std::next_permutation(perm.begin(), perm.end()));
  }

  streamable_.assign(static_cast<size_t>(wf_->num_measures()), false);
  num_streamed_ = 0;
  for (int i = 0; i < wf_->num_measures(); ++i) {
    const Measure& m = wf_->measure(i);
    if (m.op != MeasureOp::kAggregateRecords) continue;
    if (IsStreamable(m, attr_order_)) {
      streamable_[static_cast<size_t>(i)] = true;
      ++num_streamed_;
    }
  }
}

bool SortScanEvaluator::IsStreamable(const Measure& m,
                                     const std::vector<int>& order) const {
  const Schema& schema = *wf_->schema();
  // Streamable iff, along the sort order, the measure matches the sort
  // level on a prefix, may coarsen the next attribute, and is ALL after
  // that: then its regions appear contiguously in sorted order.
  size_t i = 0;
  while (i < order.size() &&
         m.granularity.level(order[i]) ==
             sort_levels_[static_cast<size_t>(order[i])]) {
    ++i;
  }
  // One attribute may sit at a coarser level, but only if it is numeric:
  // numeric coarsening is monotone in the sort-level value so its groups
  // stay contiguous, whereas nominal parents interleave.
  if (i < order.size() &&
      schema.attribute(order[i]).kind() == AttributeKind::kNumeric) {
    ++i;
  }
  for (; i < order.size(); ++i) {
    if (!schema.attribute(order[i]).is_all(m.granularity.level(order[i]))) {
      return false;
    }
  }
  return true;
}

int SortScanEvaluator::CountStreamable(const std::vector<int>& order) const {
  int count = 0;
  for (const Measure& m : wf_->measures()) {
    if (m.op == MeasureOp::kAggregateRecords && IsStreamable(m, order)) {
      ++count;
    }
  }
  return count;
}

bool SortScanEvaluator::RowLess(const int64_t* a, const int64_t* b) const {
  const Schema& schema = *wf_->schema();
  for (int attr : attr_order_) {
    const Hierarchy& h = schema.attribute(attr);
    LevelId level = sort_levels_[static_cast<size_t>(attr)];
    int64_t va = h.MapFromFinest(a[attr], level);
    int64_t vb = h.MapFromFinest(b[attr], level);
    if (va != vb) return va < vb;
  }
  return false;
}

MeasureResultSet SortScanEvaluator::Evaluate(
    const int64_t* rows, int64_t n, bool assume_sorted, LocalEvalPhase phase,
    LocalEvalStats* stats, const CancellationToken* cancel) const {
  const Schema& schema = *wf_->schema();
  const int width = schema.num_attributes();
  MeasureResultSet results(wf_->num_measures());

  // Sort an index permutation (records themselves stay in place). With
  // assume_sorted (the combined-sort optimization) the sort cost is zero
  // by definition — the framework sort already established the order.
  std::vector<int64_t> index(static_cast<size_t>(n));
  std::iota(index.begin(), index.end(), 0);
  double sort_seconds = 0;
  if (!assume_sorted) {
    auto sort_start = std::chrono::steady_clock::now();
    std::sort(index.begin(), index.end(), [&](int64_t x, int64_t y) {
      return RowLess(rows + x * width, rows + y * width);
    });
    sort_seconds = SecondsSince(sort_start);
  }

  auto eval_start = std::chrono::steady_clock::now();
  if (cancel != nullptr && cancel->cancelled()) return results;
  if (phase == LocalEvalPhase::kFull) {
    // One scan over the sorted records feeds every basic measure: the
    // streamable ones through group-change detection, the rest through
    // hash grouping.
    struct StreamState {
      int measure;
      Coords current;
      Accumulator acc;
    };
    std::vector<StreamState> streams;
    std::vector<int> hashed;
    std::vector<std::unordered_map<Coords, Accumulator, CoordsHash>> hash_acc(
        static_cast<size_t>(wf_->num_measures()));
    for (int i = 0; i < wf_->num_measures(); ++i) {
      const Measure& m = wf_->measure(i);
      if (m.op != MeasureOp::kAggregateRecords) continue;
      if (streamable_[static_cast<size_t>(i)]) {
        streams.push_back(StreamState{i, {}, Accumulator(m.fn)});
      } else {
        hashed.push_back(i);
      }
    }

    for (int64_t k = 0; k < n; ++k) {
      // Cooperative cancellation: cheap enough at this stride to keep the
      // scan's per-record cost unchanged, frequent enough that deadlines
      // interrupt long scans promptly.
      if ((k & 4095) == 0 && cancel != nullptr && cancel->cancelled()) {
        return results;
      }
      const int64_t* row = rows + index[static_cast<size_t>(k)] * width;
      for (StreamState& s : streams) {
        const Measure& m = wf_->measure(s.measure);
        Coords coords = RegionOfRecord(schema, m.granularity, row);
        if (s.current.empty()) {
          s.current = std::move(coords);
        } else if (coords != s.current) {
          results.mutable_values(s.measure)
              .emplace(std::move(s.current), s.acc.Result());
          s.current = std::move(coords);
          s.acc = Accumulator(m.fn);
        }
        s.acc.Add(static_cast<double>(row[m.field]));
      }
      for (int mi : hashed) {
        const Measure& m = wf_->measure(mi);
        Coords coords = RegionOfRecord(schema, m.granularity, row);
        auto& map = hash_acc[static_cast<size_t>(mi)];
        auto it = map.find(coords);
        if (it == map.end()) {
          it = map.emplace(std::move(coords), Accumulator(m.fn)).first;
        }
        it->second.Add(static_cast<double>(row[m.field]));
      }
    }
    for (StreamState& s : streams) {
      if (!s.current.empty()) {
        results.mutable_values(s.measure)
            .emplace(std::move(s.current), s.acc.Result());
      }
    }
    for (int mi : hashed) {
      MeasureValueMap& out = results.mutable_values(mi);
      for (auto& [coords, acc] : hash_acc[static_cast<size_t>(mi)]) {
        out.emplace(coords, acc.Result());
      }
    }

    if (!DeriveComposites(*wf_, &results, cancel)) return results;
  }
  double eval_seconds = SecondsSince(eval_start);

  if (stats != nullptr) {
    stats->records += n;
    stats->streamed_measures += num_streamed_;
    stats->hashed_measures +=
        static_cast<int64_t>(wf_->BasicMeasures().size()) - num_streamed_;
    stats->sort_seconds += sort_seconds;
    stats->eval_seconds += eval_seconds;
  }
  return results;
}

}  // namespace casm
