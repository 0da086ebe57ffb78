// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "obs/progress.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "common/clock.h"
#include "obs/metrics.h"

namespace casm {

ProgressTracker::ProgressTracker(std::string query, MetricsRegistry* registry)
    : query_(std::move(query)),
      registry_(registry != nullptr ? registry : MetricsRegistry::Global()) {}

ProgressTracker::~ProgressTracker() { StopTicker(); }

ProgressTracker::PhaseState* ProgressTracker::PhaseLocked(
    const std::string& phase) {
  for (PhaseState& state : phases_) {
    if (state.name == phase) return &state;
  }
  phases_.emplace_back();
  phases_.back().name = phase;
  return &phases_.back();
}

void ProgressTracker::PublishLocked(const PhaseState& state) {
  if (!registry_->enabled()) return;
  const MetricLabels labels = {{"query", query_}, {"phase", state.name}};
  registry_
      ->GetGauge("casm_progress_tasks_total",
                 "Tasks planned for the phase of the labeled query", labels)
      ->Set(static_cast<double>(state.total));
  registry_
      ->GetGauge("casm_progress_tasks_completed",
                 "Tasks resolved so far in the phase of the labeled query",
                 labels)
      ->Set(static_cast<double>(state.completed));
  registry_
      ->GetGauge("casm_progress_eta_seconds",
                 "Estimated seconds until the labeled query completes",
                 {{"query", query_}})
      ->Set(EtaSecondsLocked(SteadyNowSeconds()));
}

void ProgressTracker::BeginPhase(const std::string& phase,
                                 int64_t total_tasks) {
  std::unique_lock<std::mutex> lock(mu_);
  PhaseState* state = PhaseLocked(phase);
  state->total = total_tasks;
  state->completed = 0;
  state->start_seconds = SteadyNowSeconds();
  state->last_finish_seconds = state->start_seconds;
  state->begun = true;
  PublishLocked(*state);
}

void ProgressTracker::TaskFinished(const std::string& phase) {
  std::unique_lock<std::mutex> lock(mu_);
  PhaseState* state = PhaseLocked(phase);
  ++state->completed;
  state->last_finish_seconds = SteadyNowSeconds();
  PublishLocked(*state);
}

void ProgressTracker::SetModeledRemainingSeconds(const std::string& phase,
                                                 double seconds) {
  std::unique_lock<std::mutex> lock(mu_);
  PhaseState* state = PhaseLocked(phase);
  state->modeled_remaining_seconds = seconds > 0 ? seconds : 0;
  PublishLocked(*state);
}

std::vector<ProgressTracker::PhaseProgress> ProgressTracker::Snapshot() const {
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<PhaseProgress> out;
  out.reserve(phases_.size());
  for (const PhaseState& state : phases_) {
    out.push_back({state.name, state.total, state.completed});
  }
  return out;
}

double ProgressTracker::EtaSecondsLocked(double now) const {
  double eta = 0;
  for (const PhaseState& state : phases_) {
    const int64_t remaining = state.total - state.completed;
    // A phase that has not begun has no task count yet; its modeled seed
    // still counts toward the estimate.
    if (state.begun && remaining <= 0) continue;
    if (state.begun && state.completed > 0) {
      // Observed per-task rate of this phase, extrapolated. Uses the last
      // finish time, not `now`, so a long-running straggler does not
      // inflate the rate estimate while nothing completes.
      const double per_task =
          (state.last_finish_seconds - state.start_seconds) /
          static_cast<double>(state.completed);
      eta += per_task * static_cast<double>(remaining);
    } else {
      eta += state.modeled_remaining_seconds;
    }
  }
  return eta;
}

double ProgressTracker::EtaSeconds() const {
  std::unique_lock<std::mutex> lock(mu_);
  return EtaSecondsLocked(SteadyNowSeconds());
}

std::string ProgressTracker::Render() const {
  std::unique_lock<std::mutex> lock(mu_);
  int64_t total = 0;
  int64_t completed = 0;
  std::string out = query_.empty() ? "casm" : query_;
  out.append(":");
  for (const PhaseState& state : phases_) {
    total += state.total;
    completed += state.completed;
    out.append(" ").append(state.name).append(" ");
    out.append(std::to_string(state.completed)).append("/");
    out.append(std::to_string(state.total));
    out.append(",");
  }
  char buf[64];
  const double fraction =
      total > 0 ? 100.0 * static_cast<double>(completed) /
                      static_cast<double>(total)
                : 0.0;
  std::snprintf(buf, sizeof(buf), " %.1f%%", fraction);
  out.append(buf);
  const double eta = EtaSecondsLocked(SteadyNowSeconds());
  if (eta > 0) {
    std::snprintf(buf, sizeof(buf), ", eta %.1fs", eta);
    out.append(buf);
  }
  return out;
}

void ProgressTracker::StartTicker(double period_seconds) {
  if (period_seconds <= 0) return;
  std::unique_lock<std::mutex> lock(ticker_mu_);
  if (ticker_.joinable()) return;
  ticker_stop_ = false;
  ticker_ = std::thread([this, period_seconds] {
    std::unique_lock<std::mutex> wait_lock(ticker_mu_);
    while (!ticker_cv_.wait_for(
        wait_lock, std::chrono::duration<double>(period_seconds),
        [this] { return ticker_stop_; })) {
      wait_lock.unlock();
      std::fprintf(stderr, "%s\n", Render().c_str());
      wait_lock.lock();
    }
  });
}

void ProgressTracker::StopTicker() {
  std::thread ticker;
  {
    std::unique_lock<std::mutex> lock(ticker_mu_);
    if (!ticker_.joinable()) return;
    ticker_stop_ = true;
    ticker = std::move(ticker_);
  }
  ticker_cv_.notify_all();
  ticker.join();
}

double ProgressTracker::TickerSecondsFromEnv() {
  const char* value = std::getenv("CASM_PROGRESS");
  if (value == nullptr || value[0] == '\0') return 0;
  const double seconds = std::atof(value);
  return seconds > 0 ? seconds : 0;
}

}  // namespace casm
