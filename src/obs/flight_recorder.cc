// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "obs/flight_recorder.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <unistd.h>

#include "common/clock.h"
#include "common/logging.h"
#include "obs/metrics.h"

namespace casm {
namespace {

void AppendJsonEscaped(std::string* out, const std::string& s) {
  for (char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\t': out->append("\\t"); break;
      case '\r': out->append("\\r"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  AppendJsonEscaped(out, s);
  out->push_back('"');
}

}  // namespace

FlightRecorder::FlightRecorder(size_t capacity)
    : capacity_(capacity > 0 ? capacity : 1) {}

void FlightRecorder::Record(const char* category, std::string name,
                            int64_t task, int64_t attempt, std::string detail,
                            std::string query) {
  if (!enabled()) return;
  FlightEvent event;
  event.seconds = SteadyNowSeconds();
  event.category = category;
  event.name = std::move(name);
  event.query = std::move(query);
  event.task = task;
  event.attempt = attempt;
  event.detail = std::move(detail);
  std::unique_lock<std::mutex> lock(mu_);
  ++total_;
  if (ring_.size() < capacity_) {
    ring_.push_back(std::move(event));
  } else {
    ring_[start_] = std::move(event);
    start_ = (start_ + 1) % capacity_;
  }
}

std::vector<FlightEvent> FlightRecorder::Snapshot() const {
  std::unique_lock<std::mutex> lock(mu_);
  std::vector<FlightEvent> out;
  out.reserve(ring_.size());
  for (size_t i = 0; i < ring_.size(); ++i) {
    out.push_back(ring_[(start_ + i) % ring_.size()]);
  }
  return out;
}

int64_t FlightRecorder::total_recorded() const {
  std::unique_lock<std::mutex> lock(mu_);
  return total_;
}

void FlightRecorder::Clear() {
  std::unique_lock<std::mutex> lock(mu_);
  ring_.clear();
  start_ = 0;
  total_ = 0;
}

FlightRecorder* FlightRecorder::Global() {
  static FlightRecorder* const global = [] {
    auto* recorder = new FlightRecorder();  // leaked: usable during exit
    if (!GlobalDiagDir().empty()) recorder->set_enabled(true);
    return recorder;
  }();
  return global;
}

std::string FlightRecorder::GlobalDiagDir() {
  const char* dir = std::getenv("CASM_DIAG_DIR");
  return dir != nullptr ? std::string(dir) : std::string();
}

Result<std::string> WriteDiagnosticBundle(const std::string& dir,
                                          const std::string& query,
                                          const Status& failure,
                                          const std::string& options_json,
                                          const FlightRecorder& flight,
                                          const MetricsRegistry* registry) {
  if (dir.empty()) {
    return Status::InvalidArgument("diagnostic bundle directory is empty");
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create diagnostic dir '" + dir +
                            "': " + ec.message());
  }
  if (registry == nullptr) registry = MetricsRegistry::Global();

  std::string body = "{\"query\":";
  AppendJsonString(&body, query);
  body.append(",\"status\":{\"code\":");
  AppendJsonString(&body, StatusCodeToString(failure.code()));
  body.append(",\"message\":");
  AppendJsonString(&body, failure.message());
  body.append("},\"options\":");
  body.append(options_json.empty() ? "{}" : options_json);
  body.append(",\"events_recorded\":");
  body.append(std::to_string(flight.total_recorded()));
  body.append(",\"events\":[");
  const std::vector<FlightEvent> events = flight.Snapshot();
  for (size_t i = 0; i < events.size(); ++i) {
    const FlightEvent& e = events[i];
    if (i > 0) body.push_back(',');
    char ts[32];
    std::snprintf(ts, sizeof(ts), "%.6f", e.seconds);
    body.append("{\"seconds\":").append(ts);
    body.append(",\"category\":");
    AppendJsonString(&body, e.category);
    body.append(",\"name\":");
    AppendJsonString(&body, e.name);
    if (!e.query.empty()) {
      body.append(",\"query\":");
      AppendJsonString(&body, e.query);
    }
    if (e.task >= 0) {
      body.append(",\"task\":").append(std::to_string(e.task));
    }
    if (e.attempt > 0) {
      body.append(",\"attempt\":").append(std::to_string(e.attempt));
    }
    if (!e.detail.empty()) {
      body.append(",\"detail\":");
      AppendJsonString(&body, e.detail);
    }
    body.append("}");
  }
  body.append("],\"metrics\":");
  body.append(registry->Json());
  body.append("}\n");

  // One bundle per failure: pid + process-wide sequence keep concurrent
  // failing queries from clobbering each other.
  static std::atomic<uint64_t> seq{0};
  std::string stem = query.empty() ? std::string("run") : query;
  for (char& c : stem) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '-';
    if (!safe) c = '_';
  }
  const std::string path = dir + "/casm_diag_" + stem + "_" +
                           std::to_string(::getpid()) + "_" +
                           std::to_string(seq.fetch_add(1) + 1) + ".json";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal("cannot open diagnostic bundle '" + path + "'");
  }
  const size_t written = std::fwrite(body.data(), 1, body.size(), f);
  if (std::fclose(f) != 0 || written != body.size()) {
    return Status::Internal("cannot write diagnostic bundle '" + path + "'");
  }
  return path;
}

void MaybeWriteDiagnosticBundle(const std::string& dir,
                                const std::string& query,
                                const Status& failure,
                                const std::string& options_json,
                                const FlightRecorder& flight) {
  if (dir.empty()) return;
  Result<std::string> path =
      WriteDiagnosticBundle(dir, query, failure, options_json, flight);
  if (path.ok()) {
    CASM_LOG(WARN) << "evaluation failed (" << failure.message()
                   << "); diagnostic bundle written to " << *path;
  } else {
    CASM_LOG(ERROR) << "evaluation failed and the diagnostic bundle could "
                       "not be written: " << path.status().message();
  }
}

}  // namespace casm
