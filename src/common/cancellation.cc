// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "common/cancellation.h"

#include <algorithm>
#include <thread>

namespace casm {

bool InterruptibleSleep(double seconds, const CancellationToken* token) {
  using clock = std::chrono::steady_clock;
  // Clamped so the duration_cast below stays in range for huge or
  // infinite delays; ~31 years means "until cancelled" to every caller.
  seconds = std::min(seconds, 1e9);
  const auto end = clock::now() + std::chrono::duration_cast<clock::duration>(
                                      std::chrono::duration<double>(seconds));
  // Short slices keep cancellation latency well under a millisecond
  // without measurable scheduler load for realistic injected delays.
  constexpr auto kSlice = std::chrono::microseconds(500);
  for (;;) {
    if (token != nullptr && token->cancelled()) return false;
    const auto now = clock::now();
    if (now >= end) return true;
    std::this_thread::sleep_for(std::min<clock::duration>(kSlice, end - now));
  }
}

}  // namespace casm
