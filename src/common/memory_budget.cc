// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "common/memory_budget.h"

#include <algorithm>
#include <chrono>
#include <string>

#include "common/clock.h"

namespace casm {

bool MemoryBudget::TryReserve(int64_t bytes) {
  if (bytes <= 0) return true;
  std::unique_lock<std::mutex> lock(mu_);
  if (capacity_ > 0 && used_ + bytes > capacity_) return false;
  used_ += bytes;
  peak_used_ = std::max(peak_used_, used_);
  return true;
}

Status MemoryBudget::Reserve(int64_t bytes, const CancellationToken* cancel) {
  if (bytes <= 0) return Status::OK();
  if (capacity_ > 0 && bytes > capacity_) {
    return Status::InvalidArgument(
        "memory reservation of " + std::to_string(bytes) +
        " bytes exceeds the whole budget of " + std::to_string(capacity_) +
        " bytes; raise memory_budget_bytes or shrink the task");
  }
  std::unique_lock<std::mutex> lock(mu_);
  if (capacity_ > 0 && used_ + bytes > capacity_) {
    ++admission_waits_;
    const auto wait_start = std::chrono::steady_clock::now();
    while (used_ + bytes > capacity_) {
      if (cancel != nullptr && cancel->cancelled()) {
        const double waited = SecondsSince(wait_start);
        admission_wait_seconds_ += waited;
        if (wait_observer_) {
          lock.unlock();
          wait_observer_(waited);
        }
        return cancel->status();
      }
      // A short timed wait doubles as the cancellation/deadline poll: a
      // tripped token is observed within a few milliseconds even when no
      // Release() ever arrives.
      released_.wait_for(lock, std::chrono::milliseconds(2));
    }
    const double waited = SecondsSince(wait_start);
    admission_wait_seconds_ += waited;
    used_ += bytes;
    peak_used_ = std::max(peak_used_, used_);
    if (wait_observer_) {
      lock.unlock();
      wait_observer_(waited);
    }
    return Status::OK();
  }
  used_ += bytes;
  peak_used_ = std::max(peak_used_, used_);
  return Status::OK();
}

void MemoryBudget::Release(int64_t bytes) {
  if (bytes <= 0) return;
  {
    std::unique_lock<std::mutex> lock(mu_);
    used_ = std::max<int64_t>(0, used_ - bytes);
  }
  released_.notify_all();
}

int64_t MemoryBudget::used() const {
  std::unique_lock<std::mutex> lock(mu_);
  return used_;
}

int64_t MemoryBudget::peak_used() const {
  std::unique_lock<std::mutex> lock(mu_);
  return peak_used_;
}

int64_t MemoryBudget::admission_waits() const {
  std::unique_lock<std::mutex> lock(mu_);
  return admission_waits_;
}

double MemoryBudget::admission_wait_seconds() const {
  std::unique_lock<std::mutex> lock(mu_);
  return admission_wait_seconds_;
}

}  // namespace casm
