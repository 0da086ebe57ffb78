// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Runs under a malformed CASM_FAULT_PLAN (tests/CMakeLists.txt sets
// CASM_FAULT_PLAN=bogus=1 for every test here). The variable comes from
// outside the process, so each entry point that falls back to it must
// return InvalidArgument, never abort, and a caller-supplied plan must
// keep working.

#include <cstdlib>
#include <filesystem>
#include <string>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "core/key_derivation.h"
#include "core/parallel_evaluator.h"
#include "dfs/volume.h"
#include "mr/engine.h"
#include "queries/paper_data.h"
#include "queries/paper_queries.h"

namespace casm {
namespace {

namespace fs = std::filesystem;

void ExpectMalformedEnvPlan(const Status& status) {
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << status;
  EXPECT_NE(status.message().find("CASM_FAULT_PLAN"), std::string::npos)
      << status;
}

MapReduceSpec CountSpec() {
  MapReduceSpec spec;
  spec.num_mappers = 2;
  spec.num_reducers = 2;
  spec.key_width = 1;
  spec.value_width = 1;
  spec.map_fn = [](int64_t begin, int64_t end, Emitter* emitter) {
    for (int64_t i = begin; i < end; ++i) {
      int64_t key = i % 7;
      emitter->Emit(&key, &i);
    }
  };
  spec.reduce_fn = [](int, const GroupView&) {};
  return spec;
}

std::string TestDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "casm_fault_env_" + tag;
  fs::remove_all(dir);
  return dir;
}

TEST(MalformedEnvFaultPlanTest, FromEnvReportsTheParseError) {
  ASSERT_STREQ(std::getenv("CASM_FAULT_PLAN"), "bogus=1");
  Result<const FaultPlan*> plan = FaultPlan::FromEnv();
  ASSERT_FALSE(plan.ok());
  ExpectMalformedEnvPlan(plan.status());
  EXPECT_NE(plan.status().message().find("bogus"), std::string::npos);
  // Cached: every later call reports the same error.
  EXPECT_EQ(FaultPlan::FromEnv().status().message(), plan.status().message());
}

TEST(MalformedEnvFaultPlanTest, EngineRunReturnsInvalidArgument) {
  Result<MapReduceMetrics> metrics = MapReduceEngine(2).Run(CountSpec(), 100);
  ASSERT_FALSE(metrics.ok());
  ExpectMalformedEnvPlan(metrics.status());

  // A plan of the caller's own replaces the environment's.
  FaultPlan plan;
  MapReduceSpec spec = CountSpec();
  spec.fault_plan = &plan;
  EXPECT_TRUE(MapReduceEngine(2).Run(spec, 100).ok());
}

TEST(MalformedEnvFaultPlanTest, EvaluateParallelReturnsInvalidArgument) {
  Workflow wf = MakePaperQuery(PaperQuery::kQ1);
  Table table = PaperUniformTable(200, 3);
  ExecutionPlan plan;
  plan.key = DeriveDistributionKeys(wf).query_key;
  ParallelEvalOptions options;
  options.num_mappers = 2;
  options.num_reducers = 2;
  Result<ParallelEvalResult> result =
      EvaluateParallel(wf, table, plan, options);
  ASSERT_FALSE(result.ok());
  ExpectMalformedEnvPlan(result.status());
}

TEST(MalformedEnvFaultPlanTest, DfsCommitReadAndScrubReturnInvalidArgument) {
  const std::string dir = TestDir("dfs");
  FaultPlan clean;
  DfsVolumeOptions with_plan;
  with_plan.fault_plan = &clean;
  Result<DfsVolume> writable = DfsVolume::Open(dir, with_plan);
  ASSERT_TRUE(writable.ok()) << writable.status();
  ASSERT_TRUE(writable->WriteFile("kept", "payload").ok());

  // Without a plan of its own, the volume falls back to the malformed
  // environment plan at every fault point.
  Result<DfsVolume> volume = DfsVolume::Open(dir);
  ASSERT_TRUE(volume.ok()) << volume.status();
  Result<DfsVolume::FileWriter> writer = volume->CreateFile("fresh");
  ASSERT_TRUE(writer.ok()) << writer.status();
  ASSERT_TRUE(writer->Append("bytes").ok());
  ExpectMalformedEnvPlan(writer->Commit());
  EXPECT_FALSE(volume->Exists("fresh"));

  Result<std::string> read = volume->ReadFile("kept");
  ASSERT_FALSE(read.ok());
  ExpectMalformedEnvPlan(read.status());

  Result<ScrubReport> scrub = volume->Scrub();
  ASSERT_FALSE(scrub.ok());
  ExpectMalformedEnvPlan(scrub.status());

  // The committed file is intact for a reader with its own plan.
  Result<std::string> reread = writable->ReadFile("kept");
  ASSERT_TRUE(reread.ok()) << reread.status();
  EXPECT_EQ(reread.value(), "payload");
  fs::remove_all(dir);
}

}  // namespace
}  // namespace casm
