// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "core/distribution_key.h"

#include "common/logging.h"

namespace casm {

DistributionKey DistributionKey::AtGranularity(const Granularity& gran) {
  DistributionKey key;
  key.comps_.resize(static_cast<size_t>(gran.num_attributes()));
  for (int a = 0; a < gran.num_attributes(); ++a) {
    key.comps_[static_cast<size_t>(a)] = KeyComponent{gran.level(a), 0, 0};
  }
  return key;
}

Result<DistributionKey> DistributionKey::Of(const Schema& schema,
                                            const std::vector<Part>& parts) {
  DistributionKey key = AtGranularity(Granularity::Top(schema));
  for (const Part& part : parts) {
    CASM_ASSIGN_OR_RETURN(int attr, schema.AttributeIndex(part.attr));
    CASM_ASSIGN_OR_RETURN(LevelId level,
                          schema.attribute(attr).LevelByName(part.level));
    if (part.lo > 0 || part.hi < 0) {
      return Status::InvalidArgument(
          "annotation must satisfy lo <= 0 <= hi for attribute '" +
          part.attr + "'");
    }
    if ((part.lo != 0 || part.hi != 0) &&
        schema.attribute(attr).kind() != AttributeKind::kNumeric) {
      return Status::InvalidArgument(
          "range annotation on nominal attribute '" + part.attr + "'");
    }
    key.mutable_component(attr) = KeyComponent{level, part.lo, part.hi};
  }
  return key;
}

Granularity DistributionKey::granularity(const Schema& schema) const {
  Granularity gran = Granularity::Top(schema);
  for (int a = 0; a < num_attributes(); ++a) {
    gran.set_level(a, component(a).level);
  }
  return gran;
}

bool DistributionKey::HasAnnotations() const {
  for (const KeyComponent& c : comps_) {
    if (c.annotated()) return true;
  }
  return false;
}

std::vector<int> DistributionKey::AnnotatedAttributes() const {
  std::vector<int> out;
  for (int a = 0; a < num_attributes(); ++a) {
    if (component(a).annotated()) out.push_back(a);
  }
  return out;
}

int64_t DistributionKey::NumBaseBlocks(const Schema& schema) const {
  return granularity(schema).NumRegions(schema);
}

std::string DistributionKey::ToString(const Schema& schema) const {
  std::string out = "<";
  bool first = true;
  for (int a = 0; a < num_attributes(); ++a) {
    const Hierarchy& h = schema.attribute(a);
    const KeyComponent& c = component(a);
    if (h.is_all(c.level) && !c.annotated()) continue;
    if (!first) out += ", ";
    first = false;
    out += h.name() + ":" + h.level_name(c.level);
    if (c.annotated()) {
      // append, not "(" + ...: GCC 12 reports a false -Wrestrict overlap
      // on the inlined literal-plus-string form.
      out.append("(").append(std::to_string(c.lo)).append(",");
      out.append(std::to_string(c.hi)).append(")");
    }
  }
  out += ">";
  return out;
}

}  // namespace casm
