// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "ckpt/checkpoint.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/clock.h"
#include "common/logging.h"
#include "data/table.h"
#include "io/record_codec.h"
#include "measure/workflow.h"
#include "obs/metrics.h"

namespace casm {
namespace {

constexpr char kEntryMagic[4] = {'C', 'K', 'P', '1'};

std::atomic<int64_t> g_table_fingerprints{0};

/// FNV-1a 64 accumulator for fingerprints.
struct Fnv {
  uint64_t h = 0xcbf29ce484222325ull;

  void Byte(unsigned char b) {
    h ^= b;
    h *= 0x100000001b3ull;
  }
  void U64(uint64_t v) {
    for (int shift = 0; shift < 64; shift += 8) Byte((v >> shift) & 0xffu);
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Str(const std::string& s) {
    U64(s.size());
    for (char c : s) Byte(static_cast<unsigned char>(c));
  }
};

std::string FingerprintHex(uint64_t fingerprint) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fingerprint));
  return buf;
}

/// "q<fingerprint hex>." followed by `suffix`: an entry name of one
/// query's log. Built with append: GCC 12 reports a false -Wrestrict
/// overlap on the inlined `"literal" + std::string` form.
std::string EntryName(uint64_t fingerprint, const std::string& suffix) {
  const std::string hex = FingerprintHex(fingerprint);
  std::string name;
  name.reserve(2 + hex.size() + suffix.size());
  name.append("q").append(hex).append(".").append(suffix);
  return name;
}

void AppendU64Le(std::string* out, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xffu));
  }
}

uint64_t ReadU64Le(const char* bytes) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(bytes[i]))
         << (8 * i);
  }
  return v;
}

/// Registry counters for checkpoint traffic, resolved once. Increment()
/// is self-guarded, so a disabled registry costs one relaxed load.
MetricsRegistry::Counter* CkptBytesWrittenCounter() {
  static MetricsRegistry::Counter* const counter =
      MetricsRegistry::Global()->GetCounter(
          "casm_ckpt_bytes_written_total",
          "Bytes committed to the checkpoint volume (entry header + label "
          "+ payload).");
  return counter;
}

MetricsRegistry::Counter* CkptBytesRestoredCounter() {
  static MetricsRegistry::Counter* const counter =
      MetricsRegistry::Global()->GetCounter(
          "casm_ckpt_bytes_restored_total",
          "Bytes restored from committed checkpoint entries instead of "
          "recomputed.");
  return counter;
}

MetricsRegistry::Counter* CkptCommitsSkippedCounter() {
  static MetricsRegistry::Counter* const counter =
      MetricsRegistry::Global()->GetCounter(
          "casm_ckpt_commits_skipped_total",
          "Checkpoint commits skipped while the breaker was open.");
  return counter;
}

}  // namespace

CheckpointBreaker::CheckpointBreaker(int failure_threshold,
                                     double probe_seconds)
    : failure_threshold_(failure_threshold),
      probe_seconds_(probe_seconds > 0 ? probe_seconds : 0) {}

bool CheckpointBreaker::ShouldAttempt() {
  if (!open_) return true;
  const double now = SteadyNowSeconds();
  if (now >= next_probe_seconds_) {
    next_probe_seconds_ = now + probe_seconds_;
    return true;  // half-open probe
  }
  ++commits_skipped_;
  degraded_ = true;
  CkptCommitsSkippedCounter()->Increment();
  CASM_LOG(WARN) << "casm-ckpt: breaker open, skipping checkpoint commit "
                 << "(next probe in " << (next_probe_seconds_ - now)
                 << "s)";
  return false;
}

void CheckpointBreaker::RecordSuccess() {
  consecutive_failures_ = 0;
  open_ = false;
}

void CheckpointBreaker::RecordFailure() {
  ++commits_failed_;
  ++consecutive_failures_;
  degraded_ = true;
  if (failure_threshold_ > 0 && consecutive_failures_ >= failure_threshold_ &&
      !open_) {
    open_ = true;
    next_probe_seconds_ = SteadyNowSeconds() + probe_seconds_;
    CASM_LOG(WARN) << "casm-ckpt: breaker opened after "
                   << consecutive_failures_
                   << " consecutive commit failures; probing every "
                   << probe_seconds_ << "s";
  }
}

CheckpointOptions CheckpointOptionsFromEnv() {
  CheckpointOptions options;
  const char* dir = std::getenv("CASM_CHECKPOINT_DIR");
  if (dir != nullptr) options.dir = dir;
  return options;
}

uint64_t FingerprintWorkflow(const Workflow& workflow) {
  Fnv fnv;
  const Schema& schema = *workflow.schema();
  fnv.I64(schema.num_attributes());
  for (int a = 0; a < schema.num_attributes(); ++a) {
    fnv.Str(schema.attribute(a).name());
    fnv.I64(schema.attribute(a).num_levels());
  }
  fnv.I64(workflow.num_measures());
  for (const Measure& m : workflow.measures()) {
    fnv.Str(m.name);
    for (int a = 0; a < m.granularity.num_attributes(); ++a) {
      fnv.I64(m.granularity.level(a));
    }
    fnv.I64(static_cast<int64_t>(m.op));
    fnv.I64(static_cast<int64_t>(m.fn));
    fnv.I64(m.field);
    fnv.I64(static_cast<int64_t>(m.edges.size()));
    std::vector<std::string> operand_names;
    for (const MeasureEdge& e : m.edges) {
      fnv.I64(e.source);
      fnv.I64(static_cast<int64_t>(e.rel));
      fnv.I64(e.sibling.attr);
      fnv.I64(e.sibling.lo);
      fnv.I64(e.sibling.hi);
      std::string name = "s";
      name.append(std::to_string(operand_names.size()));
      operand_names.push_back(std::move(name));
    }
    fnv.Str(m.expr.empty() ? std::string()
                           : m.expr.ToText(operand_names));
  }
  return fnv.h;
}

uint64_t FingerprintTable(const Table& table) {
  g_table_fingerprints.fetch_add(1, std::memory_order_relaxed);
  Fnv fnv;
  fnv.I64(table.num_rows());
  fnv.I64(table.row_width());
  for (int64_t v : table.data()) fnv.I64(v);
  return fnv.h;
}

int64_t TableFingerprintCount() {
  return g_table_fingerprints.load(std::memory_order_relaxed);
}

uint64_t FingerprintQuery(const Workflow& workflow, const Table& table) {
  Fnv fnv;
  fnv.U64(FingerprintWorkflow(workflow));
  fnv.U64(FingerprintTable(table));
  return fnv.h;
}

Result<CheckpointLog> CheckpointLog::Open(const CheckpointOptions& options,
                                          uint64_t fingerprint) {
  if (!options.enabled()) {
    return Status::InvalidArgument(
        "CheckpointLog::Open on disabled CheckpointOptions");
  }
  CASM_ASSIGN_OR_RETURN(DfsVolume volume,
                        DfsVolume::Open(options.dir, options.volume));
  CheckpointLog log(std::move(volume), fingerprint);
  if (options.mode == CheckpointMode::kOverwrite) {
    const std::string prefix = EntryName(fingerprint, "");
    for (const std::string& name : log.volume_.ListFiles()) {
      if (name.rfind(prefix, 0) == 0) {
        CASM_RETURN_IF_ERROR(log.volume_.DeleteFile(name));
      }
    }
  }
  return log;
}

std::string CheckpointLog::JobEntryName(int job) const {
  std::string suffix = "job";
  suffix.append(std::to_string(job));
  return EntryName(fingerprint_, suffix);
}

std::string CheckpointLog::ResultEntryName() const {
  return EntryName(fingerprint_, "result");
}

Result<int64_t> CheckpointLog::CommitEntry(const std::string& name,
                                           const std::string& label,
                                           const std::string& payload) {
  // Entry = magic, fingerprint, length-prefixed label, codec payload.
  std::string bytes;
  bytes.reserve(payload.size() + label.size() + 24);
  bytes.append(kEntryMagic, 4);
  AppendU64Le(&bytes, fingerprint_);
  AppendU64Le(&bytes, label.size());
  bytes.append(label);
  bytes.append(payload);
  CASM_RETURN_IF_ERROR(volume_.WriteFile(name, bytes));
  CkptBytesWrittenCounter()->Increment(static_cast<int64_t>(bytes.size()));
  return static_cast<int64_t>(bytes.size());
}

Result<std::string> CheckpointLog::RestoreEntry(const std::string& name,
                                                const std::string& label) {
  CASM_ASSIGN_OR_RETURN(std::string bytes, volume_.ReadFile(name));
  if (bytes.size() < 20 || std::memcmp(bytes.data(), kEntryMagic, 4) != 0) {
    return Status::Internal("checkpoint entry '" + name + "' malformed");
  }
  if (ReadU64Le(bytes.data() + 4) != fingerprint_) {
    return Status::FailedPrecondition("checkpoint entry '" + name +
                                      "' fingerprint mismatch");
  }
  const uint64_t label_size = ReadU64Le(bytes.data() + 12);
  if (bytes.size() < 20 + label_size ||
      bytes.compare(20, label_size, label) != 0) {
    return Status::FailedPrecondition("checkpoint entry '" + name +
                                      "' label mismatch (expected '" + label +
                                      "')");
  }
  return bytes.substr(20 + label_size);
}

Result<MeasureValueMap> CheckpointLog::TryRestoreJob(int job,
                                                     const std::string& label,
                                                     int64_t* bytes_restored) {
  CASM_ASSIGN_OR_RETURN(std::string payload,
                        RestoreEntry(JobEntryName(job), label));
  CASM_ASSIGN_OR_RETURN(MeasureValueMap values, DecodeMeasureValues(payload));
  CkptBytesRestoredCounter()->Increment(
      static_cast<int64_t>(20 + label.size() + payload.size()));
  if (bytes_restored != nullptr) {
    // Full entry size (header + label + payload) — the same accounting
    // as CommitJob's return, so written/restored byte counters match.
    *bytes_restored =
        static_cast<int64_t>(20 + label.size() + payload.size());
  }
  return values;
}

Result<int64_t> CheckpointLog::CommitJob(int job, const std::string& label,
                                         const MeasureValueMap& values) {
  return CommitEntry(JobEntryName(job), label, EncodeMeasureValues(values));
}

Result<MeasureResultSet> CheckpointLog::TryRestoreResultSet(
    const std::string& label, int64_t* bytes_restored) {
  CASM_ASSIGN_OR_RETURN(std::string payload,
                        RestoreEntry(ResultEntryName(), label));
  CASM_ASSIGN_OR_RETURN(MeasureResultSet results,
                        DecodeMeasureResultSet(payload));
  CkptBytesRestoredCounter()->Increment(
      static_cast<int64_t>(20 + label.size() + payload.size()));
  if (bytes_restored != nullptr) {
    *bytes_restored =
        static_cast<int64_t>(20 + label.size() + payload.size());
  }
  return results;
}

Result<int64_t> CheckpointLog::CommitResultSet(const std::string& label,
                                               const MeasureResultSet& results) {
  return CommitEntry(ResultEntryName(), label, EncodeMeasureResultSet(results));
}

}  // namespace casm
