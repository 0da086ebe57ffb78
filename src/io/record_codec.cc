// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "io/record_codec.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

namespace casm {
namespace {

constexpr char kMapMagic[4] = {'C', 'M', 'V', '1'};
constexpr char kSetMagic[4] = {'C', 'R', 'S', '1'};

void AppendU32(std::string* out, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xffu));
  }
}

void AppendU64(std::string* out, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xffu));
  }
}

void AppendF64(std::string* out, double v) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(out, bits);
}

/// Bounds-checked little-endian reader over the input bytes.
class Cursor {
 public:
  explicit Cursor(std::string_view bytes) : bytes_(bytes) {}

  Status ExpectMagic(const char magic[4]) {
    if (bytes_.size() - pos_ < 4 ||
        std::memcmp(bytes_.data() + pos_, magic, 4) != 0) {
      return Status::InvalidArgument("record codec: bad or missing magic");
    }
    pos_ += 4;
    return Status::OK();
  }

  Result<uint32_t> ReadU32() {
    CASM_ASSIGN_OR_RETURN(uint64_t v, ReadLittleEndian(4));
    return static_cast<uint32_t>(v);
  }
  Result<uint64_t> ReadU64() { return ReadLittleEndian(8); }
  Result<double> ReadF64() {
    CASM_ASSIGN_OR_RETURN(uint64_t bits, ReadLittleEndian(8));
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  Result<int64_t> ReadI64() {
    CASM_ASSIGN_OR_RETURN(uint64_t v, ReadLittleEndian(8));
    return static_cast<int64_t>(v);
  }

  size_t remaining() const { return bytes_.size() - pos_; }
  std::string_view Take(size_t n) {
    std::string_view out = bytes_.substr(pos_, n);
    pos_ += n;
    return out;
  }

 private:
  Result<uint64_t> ReadLittleEndian(int width) {
    if (remaining() < static_cast<size_t>(width)) {
      return Status::InvalidArgument("record codec: truncated input");
    }
    uint64_t v = 0;
    for (int i = 0; i < width; ++i) {
      v |= static_cast<uint64_t>(
               static_cast<unsigned char>(bytes_[pos_ + i]))
           << (8 * i);
    }
    pos_ += static_cast<size_t>(width);
    return v;
  }

  std::string_view bytes_;
  size_t pos_ = 0;
};

}  // namespace

std::string EncodeMeasureValues(const MeasureValueMap& values) {
  std::vector<const MeasureValueMap::value_type*> entries;
  entries.reserve(values.size());
  for (const auto& entry : values) entries.push_back(&entry);
  std::sort(entries.begin(), entries.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });

  const uint32_t coord_width =
      entries.empty() ? 0 : static_cast<uint32_t>(entries[0]->first.size());
  std::string out;
  out.reserve(16 + entries.size() * (coord_width + 1) * 8);
  out.append(kMapMagic, 4);
  AppendU32(&out, coord_width);
  AppendU64(&out, entries.size());
  for (const auto* entry : entries) {
    CASM_CHECK_EQ(static_cast<uint32_t>(entry->first.size()), coord_width)
        << "inconsistent coord widths in one MeasureValueMap";
    for (int64_t c : entry->first) AppendU64(&out, static_cast<uint64_t>(c));
    AppendF64(&out, entry->second);
  }
  return out;
}

Result<MeasureValueMap> DecodeMeasureValues(std::string_view bytes) {
  Cursor cursor(bytes);
  CASM_RETURN_IF_ERROR(cursor.ExpectMagic(kMapMagic));
  CASM_ASSIGN_OR_RETURN(uint32_t coord_width, cursor.ReadU32());
  CASM_ASSIGN_OR_RETURN(uint64_t count, cursor.ReadU64());
  // Checked before anything is sized from it: a hostile width with
  // count 0 would otherwise pass the size check below.
  if (coord_width > Coords::kMaxSize) {
    return Status::InvalidArgument("record codec: coordinate width " +
                                   std::to_string(coord_width) +
                                   " exceeds the supported maximum");
  }
  const uint64_t entry_bytes = (static_cast<uint64_t>(coord_width) + 1) * 8;
  // Divide rather than multiply: count * entry_bytes can wrap.
  if (cursor.remaining() % entry_bytes != 0 ||
      cursor.remaining() / entry_bytes != count) {
    return Status::InvalidArgument("record codec: payload size mismatch");
  }
  // reserve() checks its bound; a count past it must not reach that check.
  if (count > MeasureValueMap::kMaxSize) {
    return Status::InvalidArgument("record codec: entry count " +
                                   std::to_string(count) +
                                   " exceeds the supported maximum");
  }
  MeasureValueMap values;
  values.reserve(static_cast<size_t>(count));
  Coords coords(coord_width);
  for (uint64_t i = 0; i < count; ++i) {
    for (uint32_t c = 0; c < coord_width; ++c) {
      CASM_ASSIGN_OR_RETURN(coords[c], cursor.ReadI64());
    }
    CASM_ASSIGN_OR_RETURN(double value, cursor.ReadF64());
    if (!values.emplace(coords, value).second) {
      return Status::InvalidArgument("record codec: duplicate coordinates");
    }
  }
  return values;
}

std::string EncodeMeasureResultSet(const MeasureResultSet& results) {
  std::string out;
  out.append(kSetMagic, 4);
  AppendU32(&out, static_cast<uint32_t>(results.num_measures()));
  for (int m = 0; m < results.num_measures(); ++m) {
    const std::string payload = EncodeMeasureValues(results.values(m));
    AppendU64(&out, payload.size());
    out.append(payload);
  }
  return out;
}

Result<MeasureResultSet> DecodeMeasureResultSet(std::string_view bytes) {
  Cursor cursor(bytes);
  CASM_RETURN_IF_ERROR(cursor.ExpectMagic(kSetMagic));
  CASM_ASSIGN_OR_RETURN(uint32_t num_measures, cursor.ReadU32());
  // Every measure needs at least its u64 payload size, so a count the
  // bytes cannot hold is rejected before one map per measure is built.
  if (num_measures > cursor.remaining() / 8 ||
      num_measures > static_cast<uint32_t>(std::numeric_limits<int>::max())) {
    return Status::InvalidArgument(
        "record codec: measure count exceeds the payload");
  }
  MeasureResultSet results(static_cast<int>(num_measures));
  for (uint32_t m = 0; m < num_measures; ++m) {
    CASM_ASSIGN_OR_RETURN(uint64_t size, cursor.ReadU64());
    if (cursor.remaining() < size) {
      return Status::InvalidArgument("record codec: truncated measure payload");
    }
    CASM_ASSIGN_OR_RETURN(results.mutable_values(static_cast<int>(m)),
                          DecodeMeasureValues(cursor.Take(size)));
  }
  if (cursor.remaining() != 0) {
    return Status::InvalidArgument("record codec: trailing bytes");
  }
  return results;
}

}  // namespace casm
