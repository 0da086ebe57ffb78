// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Tests for the shuffle's sort and spill primitives: the stable record
// sort, spill-run append/replay and spill-file naming, and the emitter
// spill path's failure modes — an unwritable spill directory or a
// truncated run must surface as a Status, never a crash or a silent
// short read.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "mr/engine.h"
#include "mr/external_sort.h"

namespace casm {
namespace {

TEST(SortRecordsTest, StableForRecordsThatCompareEqual) {
  // Width-2 records ordered by their first column only: records with
  // equal keys must keep their input order, which is what makes a key
  // group's values arrive in emission order at the reducer.
  const std::vector<int64_t> records = {5, 1, 5, 2, 5, 3, 1, 9};
  const RecordLess key_less = [](const int64_t* a, const int64_t* b) {
    return a[0] < b[0];
  };
  EXPECT_EQ(SortRecords(records, 2, key_less),
            (std::vector<int64_t>{1, 9, 5, 1, 5, 2, 5, 3}));
  EXPECT_TRUE(SortRecords({}, 2, key_less).empty());
}

TEST(AppendRunTest, SecondRunStartsWhereFirstEnds) {
  // Regression: AppendRun opens in append mode, whose initial position is
  // implementation-defined until the first write — ftell before an
  // explicit fseek(SEEK_END) may report 0 for a non-empty file, which
  // would hand out overlapping run offsets. Two appended runs must
  // replay independently via ReadRun from the returned offsets.
  const std::string path =
      SpillFilePath(std::filesystem::temp_directory_path().string(),
                    "casm_test_append", 0, ".run");
  const std::vector<int64_t> first = {1, 2, 3, 4, 5};
  const std::vector<int64_t> second = {60, 70, 80};
  Result<int64_t> off1 = AppendRun(path, first);
  ASSERT_TRUE(off1.ok()) << off1.status();
  EXPECT_EQ(off1.value(), 0);
  Result<int64_t> off2 = AppendRun(path, second);
  ASSERT_TRUE(off2.ok()) << off2.status();
  EXPECT_EQ(off2.value(), static_cast<int64_t>(first.size()));

  Result<std::vector<int64_t>> replay1 =
      ReadRun(path, off1.value(), static_cast<int64_t>(first.size()));
  Result<std::vector<int64_t>> replay2 =
      ReadRun(path, off2.value(), static_cast<int64_t>(second.size()));
  ASSERT_TRUE(replay1.ok()) << replay1.status();
  ASSERT_TRUE(replay2.ok()) << replay2.status();
  EXPECT_EQ(replay1.value(), first);
  EXPECT_EQ(replay2.value(), second);
  std::remove(path.c_str());
}

TEST(SpillFilePathTest, UniqueAcrossSequencesAndTaggedByProcess) {
  // Spill names must embed the PID and a per-process random token:
  // concurrent processes sharing one temp dir (ctest -j) must never open
  // each other's files.
  const std::string a = SpillFilePath("/tmp", "casm_sort", 0, ".run");
  const std::string b = SpillFilePath("/tmp", "casm_sort", 1, ".run");
  EXPECT_NE(a, b);
  EXPECT_EQ(a, SpillFilePath("/tmp", "casm_sort", 0, ".run"));
  const std::string pid = std::to_string(static_cast<int>(::getpid()));
  EXPECT_NE(a.find("casm_sort_" + pid + "_"), std::string::npos) << a;
  EXPECT_EQ(a.find("/tmp/"), 0u) << a;
  EXPECT_EQ(a.rfind(".run"), a.size() - 4) << a;
  // The random token keeps two equal-PID processes (PID reuse across
  // container namespaces) apart; it must actually appear in the name.
  EXPECT_GT(a.size(), ("/tmp/casm_sort_" + pid + "__0.run").size());
}

TEST(EmitterSpillTest, UnwritableSpillDirectoryFailsTheRun) {
  // Every map attempt spills into a directory that does not exist: the
  // run must fail with a Status before any group reaches reduce_fn.
  MapReduceEngine engine(1);
  MapReduceSpec spec;
  spec.num_mappers = 1;
  spec.num_reducers = 1;
  spec.key_width = 1;
  spec.value_width = 1;
  spec.emitter_spill_threshold_bytes = 64;
  spec.spill_dir = "/nonexistent/casm/spill";
  spec.map_fn = [](int64_t begin, int64_t end, Emitter* emitter) {
    for (int64_t i = begin; i < end; ++i) emitter->Emit(&i, &i);
  };
  bool reduced = false;
  spec.reduce_fn = [&reduced](int, const GroupView&) { reduced = true; };
  Result<MapReduceMetrics> metrics = engine.Run(spec, 100);
  ASSERT_FALSE(metrics.ok());
  EXPECT_NE(metrics.status().message().find("spill"), std::string::npos)
      << metrics.status().ToString();
  EXPECT_FALSE(reduced);
}

TEST(EmitterSpillTest, TruncatedSpillRunSurfacesStatusNotCrash) {
  // A spill file torn on disk after the map task finished: replaying it
  // at shuffle must return Internal instead of reading past the end.
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) /
      ("casm_truncated_spill_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  Emitter emitter(/*num_reducers=*/1, /*key_width=*/1, /*value_width=*/1);
  emitter.ConfigureMemory(/*budget=*/nullptr, /*base_reserved_bytes=*/0,
                          /*spill_threshold_bytes=*/256, dir.string());
  for (int64_t i = 0; i < 200; ++i) emitter.Emit(&i, &i);
  ASSERT_TRUE(emitter.FinalSpill().ok());
  ASSERT_GT(emitter.spilled_runs(), 0);
  std::vector<int64_t> replay;
  ASSERT_TRUE(emitter.GatherReducer(0, &replay).ok());
  ASSERT_EQ(replay.size(), 400u);

  // Chop the spill file mid-record: the last run comes back short.
  int truncated = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const auto size = std::filesystem::file_size(entry.path());
    ASSERT_GT(size, 12u);
    std::filesystem::resize_file(entry.path(), size - 12);
    ++truncated;
  }
  ASSERT_GT(truncated, 0);
  replay.clear();
  Status gathered = emitter.GatherReducer(0, &replay);
  ASSERT_FALSE(gathered.ok());
  EXPECT_EQ(gathered.code(), StatusCode::kInternal) << gathered.ToString();
  emitter.Clear();  // deletes the spill files
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace casm
