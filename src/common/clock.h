// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Steady-clock helpers shared by every layer that times its own work.

#ifndef CASM_COMMON_CLOCK_H_
#define CASM_COMMON_CLOCK_H_

#include <chrono>

namespace casm {

/// Seconds elapsed on the steady clock since `start`.
inline double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The steady clock's reading in seconds: a monotonic time base for
/// deadlines and event stamps within one process.
inline double SteadyNowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace casm

#endif  // CASM_COMMON_CLOCK_H_
