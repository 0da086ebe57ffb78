// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Key generation shared by the evaluators and the skew module's simulated
// dispatch: the batched map-side scan to key-level coordinates, mapping a
// record's base region coordinates to the set of distribution blocks that
// must contain it (the replication dual of the region-inclusion
// annotation, paper §III-B.2/III-C), and the reducer-side ownership test
// that filters duplicated results.

#ifndef CASM_CORE_KEYGEN_H_
#define CASM_CORE_KEYGEN_H_

#include <cstdint>
#include <vector>

#include "common/math.h"
#include "core/plan.h"
#include "cube/region.h"
#include "data/record_batch.h"
#include "data/table.h"
#include "measure/measure.h"
#include "mr/engine.h"

namespace casm {

/// Precomputed per-attribute key-generation parameters for one plan.
struct KeyGenAttr {
  LevelId level = 0;
  bool annotated = false;
  int64_t lo = 0, hi = 0;  // region-inclusion annotation
  int64_t cf = 1;          // clustering factor (1 if not annotated)
  int64_t max_block = 0;   // largest valid block coordinate
};

/// Builds the per-attribute parameters for `plan` over `schema`.
std::vector<KeyGenAttr> BuildKeyGen(const Schema& schema,
                                    const ExecutionPlan& plan);

/// Invokes `emit(key)` once per block that must contain a record with base
/// region coordinates `g` (one coordinate per attribute at the key level).
/// `key` is scratch of the same width. Replicas landing outside the valid
/// block range own no region and are skipped.
template <typename EmitFn>
void ForEachBlock(const std::vector<KeyGenAttr>& keygen,
                  const std::vector<int64_t>& g, std::vector<int64_t>* key,
                  EmitFn&& emit) {
  const int num_attrs = static_cast<int>(keygen.size());
  std::vector<int64_t> first(static_cast<size_t>(num_attrs));
  std::vector<int64_t> last(static_cast<size_t>(num_attrs));
  for (int a = 0; a < num_attrs; ++a) {
    const KeyGenAttr& kg = keygen[static_cast<size_t>(a)];
    const int64_t gv = g[static_cast<size_t>(a)];
    if (kg.annotated) {
      // Blocks b whose coverage [b*cf + lo, (b+1)*cf - 1 + hi] contains g.
      first[static_cast<size_t>(a)] =
          std::max<int64_t>(0, FloorDiv(gv - kg.hi, kg.cf));
      last[static_cast<size_t>(a)] =
          std::min(kg.max_block, FloorDiv(gv - kg.lo, kg.cf));
    } else {
      first[static_cast<size_t>(a)] = gv;
      last[static_cast<size_t>(a)] = gv;
    }
    if (first[static_cast<size_t>(a)] > last[static_cast<size_t>(a)]) return;
  }
  std::vector<int64_t>& k = *key;
  for (int a = 0; a < num_attrs; ++a) {
    k[static_cast<size_t>(a)] = first[static_cast<size_t>(a)];
  }
  for (;;) {
    emit(static_cast<const int64_t*>(k.data()));
    int a = num_attrs - 1;
    while (a >= 0 &&
           k[static_cast<size_t>(a)] == last[static_cast<size_t>(a)]) {
      k[static_cast<size_t>(a)] = first[static_cast<size_t>(a)];
      --a;
    }
    if (a < 0) return;
    ++k[static_cast<size_t>(a)];
  }
}

/// The map side's scan, shared by every evaluator's jobs: reads rows
/// [begin, end) as RecordBatches of `batch_rows` (<= 0: CASM_BATCH_SIZE or
/// the default), maps every attribute to its `keygen` level with one
/// vectorized pass per column, and calls `on_batch(levels, first_row, n,
/// batch)` where `levels[a][i]` is row `first_row + i`'s attribute-a
/// key-level coordinate and `batch` holds the same rows column-wise.
/// Returns false when the attempt was cancelled (deadline, lost
/// speculation race); the engine discards a cancelled attempt's output, so
/// stopping mid-split is safe.
template <typename OnBatch>
bool ScanKeyLevels(const Schema& schema, const Table& table,
                   const std::vector<KeyGenAttr>& keygen, int64_t batch_rows,
                   int64_t begin, int64_t end, const Emitter& emitter,
                   OnBatch&& on_batch) {
  const int num_attrs = schema.num_attributes();
  TableScan scan = table.Scan(batch_rows, begin, end);
  RecordBatch batch(table.row_width(), scan.batch_rows());
  std::vector<std::vector<int64_t>> cols(
      static_cast<size_t>(num_attrs),
      std::vector<int64_t>(static_cast<size_t>(scan.batch_rows())));
  std::vector<const int64_t*> levels(static_cast<size_t>(num_attrs));
  for (int a = 0; a < num_attrs; ++a) {
    levels[static_cast<size_t>(a)] = cols[static_cast<size_t>(a)].data();
  }
  while (scan.Next(&batch)) {
    if (emitter.cancelled()) return false;
    const int64_t n = batch.num_rows();
    for (int a = 0; a < num_attrs; ++a) {
      schema.attribute(a).MapFromFinestColumn(
          batch.column(a), n, keygen[static_cast<size_t>(a)].level,
          cols[static_cast<size_t>(a)].data());
    }
    on_batch(levels.data(), scan.position(), n, batch);
  }
  return true;
}

/// True if the block with coordinates `block` owns the region `coords` of
/// measure `m` (the reducer-side duplicate filter, paper §III-B.2).
bool BlockOwnsRegion(const Schema& schema, const Measure& m,
                     const std::vector<KeyGenAttr>& keygen,
                     const int64_t* block, const Coords& coords);

}  // namespace casm

#endif  // CASM_CORE_KEYGEN_H_
