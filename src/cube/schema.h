// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// A cube-space schema: an ordered list of attributes, each carrying a
// Hierarchy of domains. Records are points in the cube space spanned by the
// finest level of every attribute (paper §II).

#ifndef CASM_CUBE_SCHEMA_H_
#define CASM_CUBE_SCHEMA_H_

#include <memory>
#include <string>
#include <vector>

#include "cube/hierarchy.h"

namespace casm {

/// Immutable attribute list shared by tables, workflows and plans.
/// Create once, pass around as `std::shared_ptr<const Schema>`.
class Schema {
 public:
  /// Widest schema accepted: region keys (Coords) hold this many
  /// coordinates inline.
  static constexpr int kMaxAttributes = 8;

  /// Builds a schema from attribute hierarchies. Attribute names must be
  /// unique and non-empty, and there may be at most kMaxAttributes.
  static Result<Schema> Create(std::vector<Hierarchy> attributes);

  int num_attributes() const { return static_cast<int>(attributes_.size()); }
  const Hierarchy& attribute(int index) const {
    return attributes_[static_cast<size_t>(index)];
  }

  /// Returns the index of the attribute named `name`, or NotFound.
  Result<int> AttributeIndex(const std::string& name) const;

 private:
  Schema() = default;
  std::vector<Hierarchy> attributes_;
};

using SchemaPtr = std::shared_ptr<const Schema>;

/// Convenience: Create + wrap in a shared_ptr, aborting on invalid input.
/// Intended for examples and tests where the schema is a literal.
SchemaPtr MakeSchemaOrDie(std::vector<Hierarchy> attributes);

}  // namespace casm

#endif  // CASM_CUBE_SCHEMA_H_
