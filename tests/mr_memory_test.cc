// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Tests for memory-budgeted execution: the MemoryBudget primitive
// (non-blocking and blocking reservation, cancellation while waiting,
// the over-capacity fast-fail that keeps admission deadlock-free), the
// Emitter's byte accounting and map-side spill (including the Clear()
// contract that a retried attempt returns its bytes to the budget), and
// engine-level runs showing that tight budgets — alone or mixed with
// injected faults, stragglers, and speculation — change how a job runs,
// never what it computes.

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/fault.h"
#include "common/memory_budget.h"
#include "mr/engine.h"

namespace casm {
namespace {

// ---------------------------------------------------------------------------
// MemoryBudget primitive.

TEST(MemoryBudgetTest, UnlimitedBudgetOnlyAccounts) {
  MemoryBudget budget(0);
  EXPECT_EQ(budget.capacity(), 0);
  EXPECT_TRUE(budget.TryReserve(1'000'000'000));
  // Reserve never blocks without a capacity, whatever is outstanding.
  EXPECT_TRUE(budget.Reserve(1'000'000'000, nullptr).ok());
  EXPECT_EQ(budget.used(), 2'000'000'000);
  budget.Release(1'500'000'000);
  EXPECT_EQ(budget.used(), 500'000'000);
  EXPECT_EQ(budget.peak_used(), 2'000'000'000);
  EXPECT_EQ(budget.admission_waits(), 0);
}

TEST(MemoryBudgetTest, TryReserveRespectsCapacity) {
  MemoryBudget budget(100);
  EXPECT_TRUE(budget.TryReserve(60));
  EXPECT_FALSE(budget.TryReserve(50));  // 110 > 100
  EXPECT_TRUE(budget.TryReserve(40));
  EXPECT_EQ(budget.used(), 100);
  budget.Release(60);
  EXPECT_TRUE(budget.TryReserve(50));
  EXPECT_EQ(budget.used(), 90);
  EXPECT_EQ(budget.peak_used(), 100);
}

TEST(MemoryBudgetTest, ReserveBlocksUntilRelease) {
  MemoryBudget budget(100);
  ASSERT_TRUE(budget.TryReserve(80));
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    Status s = budget.Reserve(50, nullptr);
    EXPECT_TRUE(s.ok()) << s;
    admitted = true;
  });
  // The waiter cannot be admitted while 80 of 100 are held.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_FALSE(admitted);
  budget.Release(80);
  waiter.join();
  EXPECT_TRUE(admitted);
  EXPECT_EQ(budget.used(), 50);
  EXPECT_EQ(budget.admission_waits(), 1);
  EXPECT_GT(budget.admission_wait_seconds(), 0.0);
}

TEST(MemoryBudgetTest, CancellationUnblocksWaitingReserve) {
  MemoryBudget budget(100);
  ASSERT_TRUE(budget.TryReserve(100));
  CancellationToken token;
  std::thread canceller([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    token.Cancel();
  });
  const auto start = std::chrono::steady_clock::now();
  Status s = budget.Reserve(50, &token);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  canceller.join();
  EXPECT_EQ(s.code(), StatusCode::kCancelled) << s;
  EXPECT_LT(elapsed, 2.0);
  // A cancelled wait reserved nothing.
  EXPECT_EQ(budget.used(), 100);
}

TEST(MemoryBudgetTest, OversizedReservationFailsFastInsteadOfDeadlocking) {
  MemoryBudget budget(100);
  const auto start = std::chrono::steady_clock::now();
  Status s = budget.Reserve(101, nullptr);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << s;
  EXPECT_NE(s.message().find("exceeds the whole budget"), std::string::npos)
      << s.message();
  EXPECT_LT(elapsed, 1.0);  // immediate, not a parked wait
  EXPECT_EQ(budget.used(), 0);
}

// ---------------------------------------------------------------------------
// Emitter accounting and map-side spill, driven directly.

TEST(EmitterMemoryTest, ClearReturnsTrackedBytesToBudget) {
  MemoryBudget budget(64 << 20);
  Emitter emitter(4, 1, 1);
  emitter.ConfigureMemory(&budget, /*base_reserved_bytes=*/0,
                          /*spill_threshold_bytes=*/0, "");
  // 20k pairs x 16 bytes = 320 KB, well past the 64 KB accounting chunk.
  for (int64_t i = 0; i < 20'000; ++i) {
    int64_t key = i % 31;
    emitter.Emit(&key, &i);
  }
  EXPECT_TRUE(emitter.memory_status().ok()) << emitter.memory_status();
  EXPECT_EQ(emitter.buffered_bytes(), 20'000 * 16);
  EXPECT_GE(budget.used(), emitter.buffered_bytes());
  // The retry-replay contract: Clear() frees the buffers and returns every
  // incrementally-tracked byte, so a retried attempt starts from zero.
  emitter.Clear();
  EXPECT_EQ(emitter.buffered_bytes(), 0);
  EXPECT_EQ(budget.used(), 0);
  EXPECT_EQ(emitter.emitted(), 0);
}

TEST(EmitterMemoryTest, SpillPastThresholdAndGatherEveryPair) {
  MemoryBudget budget(64 << 20);
  Emitter emitter(4, 1, 1);
  emitter.ConfigureMemory(&budget, /*base_reserved_bytes=*/0,
                          /*spill_threshold_bytes=*/4096, "");
  const int64_t kPairs = 10'000;
  for (int64_t i = 0; i < kPairs; ++i) {
    int64_t key = i % 31;
    emitter.Emit(&key, &i);
  }
  ASSERT_TRUE(emitter.FinalSpill().ok());
  EXPECT_GT(emitter.spilled_runs(), 0);
  EXPECT_EQ(emitter.spilled_records(), kPairs);
  EXPECT_EQ(emitter.buffered_bytes(), 0);
  // Replaying the spilled runs yields exactly the emitted multiset, in
  // emission order (values were emitted ascending).
  int64_t total = 0;
  std::map<int64_t, int64_t> value_counts;
  for (int r = 0; r < 4; ++r) {
    std::vector<int64_t> records;
    ASSERT_TRUE(emitter.GatherReducer(r, &records).ok());
    ASSERT_EQ(static_cast<int64_t>(records.size()),
              emitter.PairsForReducer(r) * 2);
    for (size_t i = 0; i < records.size(); i += 2) {
      ++value_counts[records[i + 1]];
      if (i > 0) {
        EXPECT_LT(records[i - 1], records[i + 1]) << "reducer " << r;
      }
    }
    total += emitter.PairsForReducer(r);
  }
  EXPECT_EQ(total, kPairs);
  for (int64_t i = 0; i < kPairs; ++i) {
    EXPECT_EQ(value_counts[i], 1) << "value " << i;
  }
}

TEST(EmitterMemoryTest, BudgetExhaustedWithoutSpillingFailsTheAttempt) {
  // One accounting chunk of headroom and no spill threshold: the second
  // chunk reservation fails, and the emitter reports it instead of
  // growing unaccounted.
  MemoryBudget budget(64 * 1024);
  Emitter emitter(2, 1, 1);
  emitter.ConfigureMemory(&budget, /*base_reserved_bytes=*/0,
                          /*spill_threshold_bytes=*/0, "");
  for (int64_t i = 0; i < 20'000 && !emitter.cancelled(); ++i) {
    int64_t key = i;
    emitter.Emit(&key, &i);
  }
  EXPECT_FALSE(emitter.memory_status().ok());
  EXPECT_TRUE(emitter.cancelled());  // cooperative map loops bail out
  EXPECT_NE(
      emitter.memory_status().message().find("spilling disabled"),
      std::string::npos)
      << emitter.memory_status().message();
  // Clear() resets the failure so a fresh attempt can start.
  emitter.Clear();
  EXPECT_TRUE(emitter.memory_status().ok());
  EXPECT_EQ(budget.used(), 0);
}

// ---------------------------------------------------------------------------
// Engine-level budgeted runs (same CountJob shape as mr_fault_test.cc /
// mr_straggler_test.cc, so results can be compared across runs).

struct CountJob {
  MapReduceSpec spec;
  std::mutex mu;
  std::map<int64_t, int64_t> sums;
  std::map<int64_t, int64_t> deliveries;  // key -> times delivered

  explicit CountJob(int mappers = 4, int reducers = 4) {
    spec.num_mappers = mappers;
    spec.num_reducers = reducers;
    spec.key_width = 1;
    spec.value_width = 1;
    spec.map_fn = [](int64_t begin, int64_t end, Emitter* emitter) {
      for (int64_t i = begin; i < end; ++i) {
        int64_t key = i % 13;
        int64_t value = i;
        emitter->Emit(&key, &value);
      }
    };
    spec.reduce_fn = [this](int reducer, const GroupView& group) {
      int64_t total = 0;
      for (int64_t i = 0; i < group.size(); ++i) total += group.value(i)[0];
      std::unique_lock<std::mutex> lock(mu);
      sums[group.key()[0]] += total;
      ++deliveries[group.key()[0]];
    };
  }
};

TEST(MemoryBudgetEngineTest, SpillThresholdAloneDoesNotPerturbResults) {
  CountJob clean;
  Result<MapReduceMetrics> clean_metrics =
      MapReduceEngine(4).Run(clean.spec, 1300);
  ASSERT_TRUE(clean_metrics.ok()) << clean_metrics.status();
  EXPECT_EQ(clean_metrics->emitter_spilled_runs, 0);

  CountJob spilled;
  // 1300 rows x 16 bytes / 4 mappers = 5200 bytes per task, so a 1 KB
  // threshold forces several spill events per mapper.
  spilled.spec.emitter_spill_threshold_bytes = 1024;
  Result<MapReduceMetrics> metrics =
      MapReduceEngine(4).Run(spilled.spec, 1300);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_GT(metrics->emitter_spilled_runs, 0);
  EXPECT_EQ(metrics->emitter_spilled_records, metrics->emitted_pairs);
  EXPECT_EQ(metrics->emitted_pairs, clean_metrics->emitted_pairs);
  EXPECT_EQ(metrics->reducer_pairs, clean_metrics->reducer_pairs);
  EXPECT_EQ(metrics->reducer_groups, clean_metrics->reducer_groups);
  EXPECT_EQ(spilled.sums, clean.sums);
  EXPECT_EQ(spilled.deliveries, clean.deliveries);
}

TEST(MemoryBudgetEngineTest, BudgetedRunStaysWithinBudgetWithSameResults) {
  CountJob clean;
  ASSERT_TRUE(MapReduceEngine(4).Run(clean.spec, 1300).ok());

  CountJob budgeted;
  const int64_t kBudget = 1 << 20;
  budgeted.spec.memory_budget_bytes = kBudget;
  Result<MapReduceMetrics> metrics =
      MapReduceEngine(4).Run(budgeted.spec, 1300);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_GT(metrics->peak_tracked_bytes, 0);
  EXPECT_LE(metrics->peak_tracked_bytes, kBudget);
  // The derived spill threshold (4 KB floor) is below the ~5 KB per-task
  // output, so map-side spilling engaged.
  EXPECT_GT(metrics->emitter_spilled_runs, 0);
  EXPECT_EQ(budgeted.sums, clean.sums);
}

TEST(MemoryBudgetEngineTest, TightBudgetQueuesTaskAdmission) {
  CountJob clean;
  ASSERT_TRUE(MapReduceEngine(4).Run(clean.spec, 1300).ok());

  CountJob tight;
  // Room for roughly one map reservation (derived threshold + one 64 KB
  // accounting chunk) at a time; the injected per-attempt delay holds
  // each admitted reservation long enough that the other workers must
  // queue.
  tight.spec.memory_budget_bytes = 100 * 1024;
  FaultPlan plan;
  plan.Add(FaultPlan::TaskSlowdown{"map", -1, -1, 0.05});
  tight.spec.fault_plan = &plan;
  Result<MapReduceMetrics> metrics = MapReduceEngine(4).Run(tight.spec, 1300);
  ASSERT_TRUE(metrics.ok()) << metrics.status();
  EXPECT_GT(metrics->admission_waits, 0);
  EXPECT_GT(metrics->admission_wait_seconds, 0.0);
  EXPECT_LE(metrics->peak_tracked_bytes, tight.spec.memory_budget_bytes);
  EXPECT_EQ(tight.sums, clean.sums);
  for (const auto& [key, count] : tight.deliveries) EXPECT_EQ(count, 1);
}

TEST(MemoryBudgetEngineTest, BudgetBelowOneTaskReservationFailsCleanly) {
  CountJob job;
  // Far below the smallest map reservation (4 KB derived threshold plus a
  // 64 KB accounting chunk): admission can never succeed, so the run must
  // fail fast with a descriptive status — not hang.
  job.spec.memory_budget_bytes = 1024;
  const auto start = std::chrono::steady_clock::now();
  Result<MapReduceMetrics> metrics = MapReduceEngine(4).Run(job.spec, 1300);
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  ASSERT_FALSE(metrics.ok());
  EXPECT_EQ(metrics.status().code(), StatusCode::kInvalidArgument)
      << metrics.status();
  EXPECT_NE(
      metrics.status().message().find("exceeds the whole budget"),
      std::string::npos)
      << metrics.status().message();
  EXPECT_LT(elapsed, 5.0);
  EXPECT_TRUE(job.sums.empty());
}

TEST(MemoryBudgetEngineTest, RejectsNegativeMemoryKnobs) {
  CountJob negative_budget;
  negative_budget.spec.memory_budget_bytes = -1;
  EXPECT_EQ(MapReduceEngine(1).Run(negative_budget.spec, 10).status().code(),
            StatusCode::kInvalidArgument);

  CountJob negative_threshold;
  negative_threshold.spec.emitter_spill_threshold_bytes = -1;
  EXPECT_EQ(
      MapReduceEngine(1).Run(negative_threshold.spec, 10).status().code(),
      StatusCode::kInvalidArgument);
}

/// Deterministic pseudo-random decision from (seed, phase, task, attempt):
/// the same splitmix-style mixer as mr_straggler_test.cc, so the hooks
/// stay pure functions and every trial is reproducible. `phase` is 0 for
/// "map", 1 for "reduce".
uint64_t MixDecision(uint64_t seed, const char* phase_name, int task,
                     int attempt) {
  const int phase = std::string_view(phase_name) == "map" ? 0 : 1;
  uint64_t z =
      seed + 0x9e3779b97f4a7c15ULL * (1 + static_cast<uint64_t>(phase)) +
      0xbf58476d1ce4e5b9ULL * static_cast<uint64_t>(task + 1) +
      0x94d049bb133111ebULL * static_cast<uint64_t>(attempt);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

TEST(MemoryBudgetEngineTest, RandomizedAdversityUnderTightBudgets) {
  CountJob clean(5, 6);
  Result<MapReduceMetrics> clean_metrics =
      MapReduceEngine(4).Run(clean.spec, 1300);
  ASSERT_TRUE(clean_metrics.ok()) << clean_metrics.status();

  int successes = 0;
  for (uint64_t trial = 0; trial < 6; ++trial) {
    CountJob job(5, 6);
    job.spec.max_task_attempts = 3;
    job.spec.speculative_execution = true;
    job.spec.speculation_latency_multiple = 2.0;
    job.spec.speculation_min_completed_fraction = 0.25;
    job.spec.speculation_min_runtime_seconds = 0.02;
    // A budget with room for one-or-two map reservations (explicit 4 KB
    // threshold + 64 KB accounting chunk each), shrinking across trials:
    // retries, backups, and admission queueing all contend under it.
    job.spec.emitter_spill_threshold_bytes = 4096;
    job.spec.memory_budget_bytes =
        static_cast<int64_t>(160 * 1024 - trial * 12 * 1024);
    const uint64_t seed = 0xBEEF ^ (trial * 0x10001);
    // ~20% of attempts fail, ~20% are slowed by 60-120ms; which ones is a
    // pure function of (trial, phase, task, attempt).
    FaultPlan plan;
    plan.AddCrashHook([seed](const char* phase, int task, int attempt) {
      return MixDecision(seed, phase, task, attempt) % 5 == 0
                 ? Status::Internal("chaos fault")
                 : Status::OK();
    });
    plan.AddSlowdownHook([seed](const char* phase, int task, int attempt) {
      const uint64_t z = MixDecision(seed ^ 0xABCD, phase, task, attempt);
      return z % 5 == 0 ? 0.06 + static_cast<double>(z % 7) * 0.01 : 0.0;
    });
    job.spec.fault_plan = &plan;
    Result<MapReduceMetrics> metrics = MapReduceEngine(4).Run(job.spec, 1300);
    if (!metrics.ok()) {
      // A task may legitimately exhaust all attempts of both executions;
      // what matters is that the failure is a clean Status and nothing
      // leaked into the output.
      EXPECT_EQ(metrics.status().code(), StatusCode::kInternal)
          << metrics.status();
      continue;
    }
    ++successes;
    // Bit-identical to the fault-free run, and the budget held throughout
    // every retry, backup, and spill.
    EXPECT_LE(metrics->peak_tracked_bytes, job.spec.memory_budget_bytes)
        << "trial " << trial;
    EXPECT_EQ(metrics->emitted_pairs, clean_metrics->emitted_pairs)
        << "trial " << trial;
    EXPECT_EQ(metrics->reducer_pairs, clean_metrics->reducer_pairs)
        << "trial " << trial;
    EXPECT_EQ(job.sums, clean.sums) << "trial " << trial;
    for (const auto& [key, count] : job.deliveries) {
      EXPECT_EQ(count, 1) << "trial " << trial << " key " << key;
    }
  }
  // The parameters are tuned so most trials survive; if this ever drops
  // to zero the budget/retry/speculation interplay is broken.
  EXPECT_GE(successes, 3);
}

}  // namespace
}  // namespace casm
