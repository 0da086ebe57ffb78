// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Unit tests for src/common: Status/Result, integer math, the RNG and the
// thread pool.

#include <atomic>
#include <chrono>
#include <limits>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/cancellation.h"
#include "common/math.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"

namespace casm {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad input");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad input");
  EXPECT_EQ(s.ToString(), "INVALID_ARGUMENT: bad input");
}

TEST(StatusTest, EveryCodeHasAName) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kOutOfRange, StatusCode::kFailedPrecondition,
        StatusCode::kUnimplemented, StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeToString(code), "UNKNOWN");
  }
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::OutOfRange("negative");
  return Status::OK();
}

Status UsesReturnIfError(int x) {
  CASM_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_EQ(UsesReturnIfError(-1).code(), StatusCode::kOutOfRange);
}

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x;
}

Result<int> Doubled(int x) {
  CASM_ASSIGN_OR_RETURN(int v, ParsePositive(x));
  return v * 2;
}

TEST(ResultTest, ValueAndErrorPaths) {
  Result<int> ok = ParsePositive(21);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 21);

  Result<int> err = ParsePositive(-3);
  ASSERT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnPropagates) {
  EXPECT_EQ(Doubled(21).value(), 42);
  EXPECT_FALSE(Doubled(0).ok());
}

TEST(MathTest, FloorDivRoundsTowardsNegativeInfinity) {
  EXPECT_EQ(FloorDiv(9, 3), 3);
  EXPECT_EQ(FloorDiv(10, 3), 3);
  EXPECT_EQ(FloorDiv(-1, 3), -1);
  EXPECT_EQ(FloorDiv(-3, 3), -1);
  EXPECT_EQ(FloorDiv(-4, 3), -2);
  EXPECT_EQ(FloorDiv(0, 5), 0);
}

TEST(MathTest, CeilDivRoundsTowardsPositiveInfinity) {
  EXPECT_EQ(CeilDiv(9, 3), 3);
  EXPECT_EQ(CeilDiv(10, 3), 4);
  EXPECT_EQ(CeilDiv(-1, 3), 0);
  EXPECT_EQ(CeilDiv(-4, 3), -1);
}

TEST(MathTest, FloorModIsAlwaysNonNegative) {
  for (int64_t a = -20; a <= 20; ++a) {
    for (int64_t b : {1, 2, 3, 7}) {
      int64_t m = FloorMod(a, b);
      EXPECT_GE(m, 0);
      EXPECT_LT(m, b);
      EXPECT_EQ(FloorDiv(a, b) * b + m, a);
    }
  }
}

TEST(RngTest, DeterministicForSeed) {
  Rng a(42), b(42), c(43);
  EXPECT_EQ(a.Next(), b.Next());
  EXPECT_NE(a.Next(), c.Next());
}

TEST(RngTest, UniformStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
    int64_t v = rng.UniformRange(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    double d = rng.UniformDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, UniformCoversTheRange) {
  Rng rng(11);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) seen.insert(rng.Uniform(8));
  EXPECT_EQ(seen.size(), 8u);
}

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&count] { ++count; });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPoolTest, ParallelForVisitsEachIndexOnce) {
  ThreadPool pool(3);
  std::vector<std::atomic<int>> visits(257);
  EXPECT_TRUE(
      pool.ParallelFor(visits.size(), [&](size_t i) { ++visits[i]; }).ok());
  for (const auto& v : visits) EXPECT_EQ(v.load(), 1);
}

TEST(ThreadPoolTest, WaitWithNoTasksReturns) {
  ThreadPool pool(2);
  EXPECT_TRUE(pool.Wait().ok());
  EXPECT_TRUE(pool.ParallelFor(0, [](size_t) { FAIL(); }).ok());
}

TEST(ThreadPoolTest, SubmittedTaskExceptionIsCapturedNotFatal) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.Submit([&] { ++ran; });
  pool.Submit([] { throw std::runtime_error("task boom"); });
  pool.Submit([&] { ++ran; });
  Status status = pool.Wait();
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("task boom"), std::string::npos);
  EXPECT_EQ(ran.load(), 2);  // the failure did not cancel sibling tasks
  // The error was consumed; the pool is reusable and clean afterwards.
  pool.Submit([&] { ++ran; });
  EXPECT_TRUE(pool.Wait().ok());
  EXPECT_EQ(ran.load(), 3);
}

TEST(ThreadPoolTest, NonStdExceptionIsCapturedToo) {
  ThreadPool pool(1);
  pool.Submit([] { throw 42; });
  Status status = pool.Wait();
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInternal);
}

TEST(ThreadPoolTest, ParallelForReturnsFirstFailureAndStopsEarly) {
  ThreadPool pool(2);
  std::atomic<int> visited{0};
  Status status = pool.ParallelFor(100000, [&](size_t i) {
    if (i == 17) throw std::runtime_error("item boom");
    ++visited;
  });
  EXPECT_FALSE(status.ok());
  EXPECT_NE(status.message().find("item boom"), std::string::npos);
  // Fail-fast: the remaining indices were abandoned, not all 100k run.
  EXPECT_LT(visited.load(), 100000);
  // The pool survives and later loops run clean.
  std::atomic<int> after{0};
  EXPECT_TRUE(pool.ParallelFor(64, [&](size_t) { ++after; }).ok());
  EXPECT_EQ(after.load(), 64);
}

TEST(ThreadPoolTest, ParallelForWithFarMoreItemsThanThreads) {
  ThreadPool pool(2);
  constexpr size_t kN = 50000;
  std::atomic<int64_t> sum{0};
  ASSERT_TRUE(
      pool.ParallelFor(kN, [&](size_t i) { sum += static_cast<int64_t>(i); })
          .ok());
  EXPECT_EQ(sum.load(), static_cast<int64_t>(kN * (kN - 1) / 2));
}

TEST(CancellationTest, FreshTokenIsLive) {
  CancellationToken token;
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.status().ok());
}

TEST(CancellationTest, CancelTripsOnceAndStaysTripped) {
  CancellationToken token;
  token.Cancel();
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.status().code(), StatusCode::kCancelled);
  token.Cancel();  // idempotent
  EXPECT_EQ(token.status().code(), StatusCode::kCancelled);
}

TEST(CancellationTest, ExpiredDeadlineTripsOnPoll) {
  CancellationToken token;
  token.set_deadline(std::chrono::steady_clock::now() -
                     std::chrono::milliseconds(1));
  EXPECT_TRUE(token.cancelled());
  EXPECT_EQ(token.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancellationTest, FutureDeadlineStaysLive) {
  CancellationToken token;
  token.set_deadline(std::chrono::steady_clock::now() +
                     std::chrono::hours(1));
  EXPECT_FALSE(token.cancelled());
  EXPECT_TRUE(token.status().ok());
}

TEST(CancellationTest, ChildObservesParentTripWithParentsReason) {
  CancellationToken parent;
  CancellationToken child(&parent);
  EXPECT_FALSE(child.cancelled());
  parent.set_deadline(std::chrono::steady_clock::now() -
                      std::chrono::milliseconds(1));
  EXPECT_TRUE(child.cancelled());
  EXPECT_EQ(child.status().code(), StatusCode::kDeadlineExceeded);
}

TEST(CancellationTest, SiblingTokensAreIndependent) {
  CancellationToken parent;
  CancellationToken loser(&parent);
  CancellationToken winner(&parent);
  loser.Cancel();
  EXPECT_TRUE(loser.cancelled());
  EXPECT_FALSE(winner.cancelled());
  EXPECT_FALSE(parent.cancelled());
}

TEST(CancellationTest, InterruptibleSleepRunsFullDurationWhenLive) {
  CancellationToken token;
  const auto start = std::chrono::steady_clock::now();
  EXPECT_TRUE(InterruptibleSleep(0.05, &token));
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_GE(elapsed, 0.05);
}

TEST(CancellationTest, InterruptibleSleepAbortsWhenTripped) {
  // Delays too large for the clock's integer duration sleep until
  // cancelled too, instead of overflowing it.
  for (double seconds :
       {10.0, 1e300, std::numeric_limits<double>::infinity()}) {
    CancellationToken token;
    std::thread canceller([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      token.Cancel();
    });
    const auto start = std::chrono::steady_clock::now();
    EXPECT_FALSE(InterruptibleSleep(seconds, &token)) << seconds;
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    canceller.join();
    EXPECT_LT(elapsed, 5.0) << seconds;
  }
}

TEST(ThreadPoolTest, CancellableParallelForStopsEarly) {
  ThreadPool pool(2);
  CancellationToken token;
  std::atomic<int> visited{0};
  Status status = pool.ParallelFor(
      100000,
      [&](size_t i) {
        if (++visited == 10) token.Cancel();
      },
      &token);
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_LT(visited.load(), 100000);
  // The pool survives for later (un-cancelled) loops.
  std::atomic<int> after{0};
  EXPECT_TRUE(pool.ParallelFor(64, [&](size_t) { ++after; }).ok());
  EXPECT_EQ(after.load(), 64);
}

TEST(ThreadPoolTest, CancellableParallelForPrefersTaskFailureOverCancel) {
  ThreadPool pool(2);
  CancellationToken token;
  Status status = pool.ParallelFor(
      1000,
      [&](size_t i) {
        if (i == 5) {
          token.Cancel();
          throw std::runtime_error("real failure");
        }
      },
      &token);
  // A concrete task failure is more informative than the cancellation it
  // triggered.
  EXPECT_EQ(status.code(), StatusCode::kInternal);
  EXPECT_NE(status.message().find("real failure"), std::string::npos);
}

TEST(ThreadPoolTest, CancellableParallelForRunsCleanWithLiveToken) {
  ThreadPool pool(2);
  CancellationToken token;
  std::atomic<int> visited{0};
  ASSERT_TRUE(pool.ParallelFor(256, [&](size_t) { ++visited; }, &token).ok());
  EXPECT_EQ(visited.load(), 256);
}

TEST(ThreadPoolTest, QueueLatencyHookSeesEveryTaskAndUninstallsCleanly) {
  ThreadPool pool(2);
  std::atomic<int> observed{0};
  pool.set_queue_latency_hook([&](double queued_seconds) {
    EXPECT_GE(queued_seconds, 0.0);
    ++observed;
  });
  std::atomic<int> ran{0};
  ASSERT_TRUE(pool.ParallelFor(64, [&](size_t) { ++ran; }).ok());
  EXPECT_EQ(ran.load(), 64);
  const int seen = observed.load();
  EXPECT_GT(seen, 0);
  // An empty hook uninstalls: later tasks are no longer observed.
  pool.set_queue_latency_hook(nullptr);
  ASSERT_TRUE(pool.ParallelFor(64, [&](size_t) { ++ran; }).ok());
  EXPECT_EQ(observed.load(), seen);
}

TEST(QuantileSketchTest, ExactQuantilesUnderCap) {
  QuantileSketch sketch;
  for (int i = 100; i >= 1; --i) sketch.Add(i);  // 1..100, reversed
  EXPECT_EQ(sketch.count(), 100);
  EXPECT_DOUBLE_EQ(sketch.Min(), 1.0);
  EXPECT_DOUBLE_EQ(sketch.Max(), 100.0);
  EXPECT_DOUBLE_EQ(sketch.Sum(), 5050.0);
  EXPECT_DOUBLE_EQ(sketch.Mean(), 50.5);
  // Upper-median convention: sorted[floor(q*n)].
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.5), 51.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(1.0), 100.0);
  EXPECT_DOUBLE_EQ(sketch.Quantile(0.9), 91.0);
}

TEST(QuantileSketchTest, MatchesEngineMedianConventionForOddAndEvenN) {
  // The engine's speculation policy used sorted[n/2]; the sketch must
  // reproduce it bit-for-bit below the cap so replacing the ad-hoc
  // median changed no behavior.
  for (int n : {1, 2, 3, 4, 5, 10, 11}) {
    QuantileSketch sketch;
    std::vector<double> values;
    for (int i = 0; i < n; ++i) {
      values.push_back(i * 3.5);
      sketch.Add(i * 3.5);
    }
    EXPECT_DOUBLE_EQ(sketch.Quantile(0.5),
                     values[static_cast<size_t>(n) / 2])
        << "n=" << n;
  }
}

TEST(QuantileSketchTest, ReservoirPastCapStaysApproximatelyCorrect) {
  QuantileSketch sketch(256);
  for (int i = 0; i < 100000; ++i) sketch.Add(i);
  EXPECT_EQ(sketch.count(), 100000);
  EXPECT_DOUBLE_EQ(sketch.Max(), 99999.0);  // exact despite sampling
  EXPECT_DOUBLE_EQ(sketch.Min(), 0.0);
  // The sampled median of a uniform stream lands near the true median;
  // a generous band keeps this deterministic test robust (the sketch RNG
  // is fixed-seed, so this cannot flake).
  EXPECT_NEAR(sketch.Quantile(0.5), 50000.0, 15000.0);
}

TEST(QuantileSketchTest, MergeConcatenatesUnderCap) {
  QuantileSketch a, b;
  for (int i = 0; i < 10; ++i) a.Add(i);        // 0..9
  for (int i = 10; i < 20; ++i) b.Add(i);       // 10..19
  a.Merge(b);
  EXPECT_EQ(a.count(), 20);
  EXPECT_DOUBLE_EQ(a.Quantile(0.5), 10.0);
  EXPECT_DOUBLE_EQ(a.Max(), 19.0);
  EXPECT_DOUBLE_EQ(a.Sum(), 190.0);
}

TEST(QuantileSketchTest, MergeIntoEmptyAndFromEmpty) {
  QuantileSketch empty, filled;
  for (int i = 1; i <= 5; ++i) filled.Add(i);
  QuantileSketch target;
  target.Merge(filled);
  EXPECT_EQ(target.count(), 5);
  EXPECT_DOUBLE_EQ(target.Quantile(0.5), 3.0);
  target.Merge(empty);  // no-op
  EXPECT_EQ(target.count(), 5);
}

TEST(QuantileSketchTest, MergePastCapSubsamplesProportionally) {
  QuantileSketch a(128), b(128);
  for (int i = 0; i < 10000; ++i) a.Add(0.0);
  for (int i = 0; i < 10000; ++i) b.Add(100.0);
  a.Merge(b);
  EXPECT_EQ(a.count(), 20000);
  EXPECT_DOUBLE_EQ(a.Min(), 0.0);
  EXPECT_DOUBLE_EQ(a.Max(), 100.0);
  // Equal-weight halves: the median is one of the two values, and the
  // quartiles must see both sides survive the subsample.
  EXPECT_DOUBLE_EQ(a.Quantile(0.05), 0.0);
  EXPECT_DOUBLE_EQ(a.Quantile(0.95), 100.0);
}

}  // namespace
}  // namespace casm
