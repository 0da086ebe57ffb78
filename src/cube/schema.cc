// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "cube/schema.h"

#include <string>
#include <utility>

#include "common/logging.h"

namespace casm {

Result<Schema> Schema::Create(std::vector<Hierarchy> attributes) {
  if (attributes.empty()) {
    return Status::InvalidArgument("schema needs at least one attribute");
  }
  if (attributes.size() > static_cast<size_t>(kMaxAttributes)) {
    return Status::InvalidArgument(
        "schema has " + std::to_string(attributes.size()) +
        " attributes; at most " + std::to_string(kMaxAttributes) +
        " are supported");
  }
  for (size_t i = 0; i < attributes.size(); ++i) {
    if (attributes[i].name().empty()) {
      return Status::InvalidArgument("attribute names must be non-empty");
    }
    for (size_t j = 0; j < i; ++j) {
      if (attributes[i].name() == attributes[j].name()) {
        return Status::InvalidArgument("duplicate attribute name '" +
                                       attributes[i].name() + "'");
      }
    }
  }
  Schema schema;
  schema.attributes_ = std::move(attributes);
  return schema;
}

Result<int> Schema::AttributeIndex(const std::string& name) const {
  for (int i = 0; i < num_attributes(); ++i) {
    if (attributes_[static_cast<size_t>(i)].name() == name) return i;
  }
  return Status::NotFound("no attribute named '" + name + "'");
}

SchemaPtr MakeSchemaOrDie(std::vector<Hierarchy> attributes) {
  Result<Schema> schema = Schema::Create(std::move(attributes));
  CASM_CHECK(schema.ok()) << schema.status().ToString();
  return std::make_shared<const Schema>(std::move(schema).value());
}

}  // namespace casm
