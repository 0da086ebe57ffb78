// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// The shuffle's sort and spill primitives over fixed-width int64 records
// (the reducer-side "collect pairs and sort them to group pairs with the
// same key" of paper §III-A). Map-side spills write each reducer's pairs
// as row-major runs in emission order; the reducer replays them and runs
// one stable in-memory sort, so spilling never changes a value.

#ifndef CASM_MR_EXTERNAL_SORT_H_
#define CASM_MR_EXTERNAL_SORT_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/result.h"

namespace casm {

/// Record comparator over two record pointers (each `width` int64s).
using RecordLess = std::function<bool(const int64_t*, const int64_t*)>;

/// Builds a spill-file path that is unique across concurrent processes
/// sharing `dir`: "<dir>/<prefix>_<pid>_<token>_<seq><ext>", where
/// `token` is a per-process random value drawn once at first use. A
/// process-local counter alone is NOT enough: two `ctest -j` workers
/// both counting from zero would open the same file and corrupt each
/// other's runs.
std::string SpillFilePath(const std::string& dir, const char* prefix,
                          uint64_t seq, const char* ext);

/// In-memory stable sort of a flat buffer of `width`-int64 records by
/// `less`: records that compare equal keep their input order (the
/// reducer's framework sort, and the multi-job evaluator's).
std::vector<int64_t> SortRecords(std::vector<int64_t> records, int width,
                                 const RecordLess& less);

/// Appends `records` (raw int64s) to the spill file at `path`, creating
/// it if needed. Returns the offset — in int64s from the start of the
/// file — at which the run begins.
Result<int64_t> AppendRun(const std::string& path,
                          const std::vector<int64_t>& records);

/// Reads `count_int64s` int64s starting `offset_int64s` into a spill file
/// written by AppendRun.
Result<std::vector<int64_t>> ReadRun(const std::string& path,
                                     int64_t offset_int64s,
                                     int64_t count_int64s);

}  // namespace casm

#endif  // CASM_MR_EXTERNAL_SORT_H_
