// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "mr/external_sort.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <random>

#include "common/logging.h"

namespace casm {

std::string SpillFilePath(const std::string& dir, const char* prefix,
                          uint64_t seq, const char* ext) {
  // One random token per process, drawn lazily: PID alone is not enough
  // on systems that recycle PIDs quickly, and the token alone is not
  // enough if a PRNG is seeded identically — combine both.
  static const uint64_t token = [] {
    std::random_device rd;
    return (static_cast<uint64_t>(rd()) << 32) ^ rd();
  }();
  char tag[64];
  std::snprintf(tag, sizeof(tag), "_%d_%016llx_", static_cast<int>(::getpid()),
                static_cast<unsigned long long>(token));
  return dir + "/" + prefix + tag + std::to_string(seq) + ext;
}

std::vector<int64_t> SortRecords(std::vector<int64_t> records, int width,
                                 const RecordLess& less) {
  CASM_CHECK_GE(width, 1);
  CASM_CHECK_EQ(static_cast<int64_t>(records.size()) % width, 0);
  // Sort an index permutation, then materialize the permuted buffer.
  // std::stable_sort keeps equal records in input order, so a key group's
  // values arrive in map-output order whatever other keys share the
  // buffer.
  const int64_t count = static_cast<int64_t>(records.size()) / width;
  std::vector<int64_t> order(static_cast<size_t>(count));
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](int64_t a, int64_t b) {
    return less(records.data() + a * width, records.data() + b * width);
  });
  std::vector<int64_t> sorted;
  sorted.reserve(records.size());
  for (int64_t i : order) {
    const int64_t* row = records.data() + i * width;
    sorted.insert(sorted.end(), row, row + width);
  }
  return sorted;
}

Result<int64_t> AppendRun(const std::string& path,
                          const std::vector<int64_t>& records) {
  std::FILE* file = std::fopen(path.c_str(), "ab");
  if (file == nullptr) {
    return Status::Internal("cannot open spill file " + path);
  }
  // C11 leaves the initial position of an append-mode stream
  // implementation-defined (MSVC reports 0 until the first write); the
  // returned run offset must be the current end of file.
  if (std::fseek(file, 0, SEEK_END) != 0) {
    std::fclose(file);
    return Status::Internal("cannot position in spill file " + path);
  }
  const long offset_bytes = std::ftell(file);
  if (offset_bytes < 0) {
    std::fclose(file);
    return Status::Internal("cannot position in spill file " + path);
  }
  const size_t written =
      std::fwrite(records.data(), sizeof(int64_t), records.size(), file);
  std::fclose(file);
  if (written != records.size()) {
    return Status::Internal("short write to spill file " + path);
  }
  return static_cast<int64_t>(offset_bytes) /
         static_cast<int64_t>(sizeof(int64_t));
}

Result<std::vector<int64_t>> ReadRun(const std::string& path,
                                     int64_t offset_int64s,
                                     int64_t count_int64s) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::Internal("cannot reopen spill file " + path);
  }
  std::vector<int64_t> out(static_cast<size_t>(count_int64s));
  const int64_t offset_bytes =
      offset_int64s * static_cast<int64_t>(sizeof(int64_t));
  if (std::fseek(file, static_cast<long>(offset_bytes), SEEK_SET) != 0) {
    std::fclose(file);
    return Status::Internal("cannot seek in spill file " + path);
  }
  const size_t read =
      std::fread(out.data(), sizeof(int64_t), out.size(), file);
  std::fclose(file);
  if (read != out.size()) {
    return Status::Internal("short read from spill file " + path);
  }
  return out;
}

}  // namespace casm
