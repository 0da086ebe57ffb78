// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "common/thread_pool.h"

#include <atomic>
#include <exception>
#include <memory>
#include <string>
#include <utility>

#include "common/clock.h"
#include "common/logging.h"

namespace casm {

ThreadPool::ThreadPool(int num_threads) {
  CASM_CHECK_GE(num_threads, 1);
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_available_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    CASM_CHECK(!shutdown_);
    queue_.push_back(
        QueuedTask{std::move(task), std::chrono::steady_clock::now()});
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::set_queue_latency_hook(std::function<void(double)> hook) {
  std::unique_lock<std::mutex> lock(mu_);
  queue_latency_hook_ =
      hook ? std::make_shared<const std::function<void(double)>>(
                 std::move(hook))
           : nullptr;
}

void ThreadPool::RecordError(Status status) {
  std::unique_lock<std::mutex> lock(mu_);
  if (first_error_.ok()) first_error_ = std::move(status);
}

Status ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  all_done_.wait(lock, [this] { return in_flight_ == 0; });
  Status error = std::move(first_error_);
  first_error_ = Status::OK();
  return error;
}

Status ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
  return ParallelFor(n, fn, nullptr);
}

Status ThreadPool::ParallelFor(size_t n, const std::function<void(size_t)>& fn,
                               const CancellationToken* cancel) {
  if (n == 0) return Status::OK();
  // Chunk so that each worker receives a handful of tasks; a shared atomic
  // cursor inside each chunked task balances uneven per-item cost. On the
  // first failure (or cancellation) the cursor is pushed past n so the
  // remaining indices are abandoned (fail-fast) without tearing down the
  // pool.
  auto cursor = std::make_shared<std::atomic<size_t>>(0);
  size_t tasks = std::min(n, threads_.size() * 4);
  for (size_t t = 0; t < tasks; ++t) {
    Submit([this, cursor, n, cancel, &fn] {
      for (size_t i = cursor->fetch_add(1); i < n; i = cursor->fetch_add(1)) {
        if (cancel != nullptr && cancel->cancelled()) {
          cursor->store(n);
          return;
        }
        try {
          fn(i);
        } catch (const std::exception& e) {
          RecordError(Status::Internal("ParallelFor item " + std::to_string(i) +
                                       " threw: " + e.what()));
          cursor->store(n);
          return;
        } catch (...) {
          RecordError(Status::Internal("ParallelFor item " + std::to_string(i) +
                                       " threw a non-std exception"));
          cursor->store(n);
          return;
        }
      }
    });
  }
  Status error = Wait();
  if (error.ok() && cancel != nullptr && cancel->cancelled()) {
    return cancel->status();
  }
  return error;
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    std::chrono::steady_clock::time_point enqueued;
    std::shared_ptr<const std::function<void(double)>> hook;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_available_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) return;  // shutdown_ with a drained queue
      task = std::move(queue_.front().fn);
      enqueued = queue_.front().enqueued;
      queue_.pop_front();
      hook = queue_latency_hook_;
    }
    if (hook != nullptr) {
      (*hook)(SecondsSince(enqueued));
    }
    // A throwing task must not escape the worker thread (std::terminate);
    // capture the failure for the next Wait() instead.
    try {
      task();
    } catch (const std::exception& e) {
      RecordError(
          Status::Internal(std::string("submitted task threw: ") + e.what()));
    } catch (...) {
      RecordError(Status::Internal("submitted task threw a non-std exception"));
    }
    {
      std::unique_lock<std::mutex> lock(mu_);
      --in_flight_;
      if (in_flight_ == 0) all_done_.notify_all();
    }
  }
}

}  // namespace casm
