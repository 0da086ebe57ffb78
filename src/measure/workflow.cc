// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.

#include "measure/workflow.h"

#include <utility>

#include "common/logging.h"

namespace casm {

std::vector<int> Workflow::BasicMeasures() const {
  std::vector<int> out;
  for (int i = 0; i < num_measures(); ++i) {
    if (measure(i).op == MeasureOp::kAggregateRecords) out.push_back(i);
  }
  return out;
}

Result<int> Workflow::MeasureIndex(const std::string& name) const {
  for (int i = 0; i < num_measures(); ++i) {
    if (measure(i).name == name) return i;
  }
  return Status::NotFound("no measure named '" + name + "'");
}

bool Workflow::HasSiblingEdges() const {
  for (const Measure& m : measures_) {
    for (const MeasureEdge& e : m.edges) {
      if (e.rel == Relationship::kSibling) return true;
    }
  }
  return false;
}

std::string Workflow::ToString() const {
  std::string out;
  for (int i = 0; i < num_measures(); ++i) {
    const Measure& m = measure(i);
    out += m.name + " " + m.granularity.ToString(*schema_);
    switch (m.op) {
      case MeasureOp::kAggregateRecords:
        out += " = ";
        out += AggregateFnName(m.fn);
        out += "(";
        out += schema_->attribute(m.field).name();
        out += ")";
        break;
      case MeasureOp::kAggregateSources:
        out += " = ";
        out += AggregateFnName(m.fn);
        out += "(sources)";
        break;
      case MeasureOp::kExpression:
        out += " = expr(sources)";
        break;
    }
    for (const MeasureEdge& e : m.edges) {
      out += "  <-[";
      out += RelationshipName(e.rel);
      if (e.rel == Relationship::kSibling) {
        out += " " + schema_->attribute(e.sibling.attr).name() + "(" +
               std::to_string(e.sibling.lo) + "," +
               std::to_string(e.sibling.hi) + ")";
      }
      out += "]- " + measure(e.source).name;
    }
    out += "\n";
  }
  return out;
}

std::string Workflow::ToDot() const {
  std::string out = "digraph workflow {\n  rankdir=BT;\n  node [shape=box];\n";
  for (int i = 0; i < num_measures(); ++i) {
    const Measure& m = measure(i);
    std::string label = m.name + "\\n" + m.granularity.ToString(*schema_);
    if (m.op != MeasureOp::kExpression) {
      label += std::string("\\n") + AggregateFnName(m.fn);
      if (m.op == MeasureOp::kAggregateRecords) {
        label += "(" + schema_->attribute(m.field).name() + ")";
      }
    }
    out += "  m" + std::to_string(i) + " [label=\"" + label + "\"];\n";
  }
  for (int i = 0; i < num_measures(); ++i) {
    for (const MeasureEdge& e : measure(i).edges) {
      std::string label = RelationshipName(e.rel);
      if (e.rel == Relationship::kSibling) {
        label += " " + schema_->attribute(e.sibling.attr).name() + "(" +
                 std::to_string(e.sibling.lo) + "," +
                 std::to_string(e.sibling.hi) + ")";
      }
      out += "  m" + std::to_string(e.source) + " -> m" + std::to_string(i) +
             " [label=\"" + label + "\"];\n";
    }
  }
  out += "}\n";
  return out;
}

int WorkflowBuilder::AddBasic(std::string name, Granularity gran,
                              AggregateFn fn, const std::string& field_name) {
  Measure m;
  m.name = std::move(name);
  m.granularity = std::move(gran);
  m.op = MeasureOp::kAggregateRecords;
  m.fn = fn;
  Result<int> field = schema_->AttributeIndex(field_name);
  if (!field.ok()) {
    if (deferred_error_.ok()) deferred_error_ = field.status();
    m.field = 0;
  } else {
    m.field = field.value();
  }
  return Add(std::move(m));
}

int WorkflowBuilder::AddSourceAggregate(std::string name, Granularity gran,
                                        AggregateFn fn,
                                        std::vector<MeasureEdge> edges) {
  Measure m;
  m.name = std::move(name);
  m.granularity = std::move(gran);
  m.op = MeasureOp::kAggregateSources;
  m.fn = fn;
  m.edges = std::move(edges);
  return Add(std::move(m));
}

int WorkflowBuilder::AddExpression(std::string name, Granularity gran,
                                   Expression expr,
                                   std::vector<MeasureEdge> edges) {
  Measure m;
  m.name = std::move(name);
  m.granularity = std::move(gran);
  m.op = MeasureOp::kExpression;
  m.expr = std::move(expr);
  m.edges = std::move(edges);
  return Add(std::move(m));
}

MeasureEdge WorkflowBuilder::Self(int source) {
  return MeasureEdge{source, Relationship::kSelf, {}};
}
MeasureEdge WorkflowBuilder::ChildParent(int source) {
  return MeasureEdge{source, Relationship::kChildParent, {}};
}
MeasureEdge WorkflowBuilder::ParentChild(int source) {
  return MeasureEdge{source, Relationship::kParentChild, {}};
}

MeasureEdge WorkflowBuilder::Sibling(int source, const std::string& attr_name,
                                     int64_t lo, int64_t hi) const {
  Result<int> attr = schema_->AttributeIndex(attr_name);
  CASM_CHECK(attr.ok()) << attr.status().ToString();
  MeasureEdge e;
  e.source = source;
  e.rel = Relationship::kSibling;
  e.sibling = SiblingRange{attr.value(), lo, hi};
  return e;
}

int WorkflowBuilder::Add(Measure measure) {
  measures_.push_back(std::move(measure));
  return static_cast<int>(measures_.size()) - 1;
}

namespace {

Status ValidateMeasure(const Schema& schema,
                       const std::vector<Measure>& measures, int index) {
  const Measure& m = measures[static_cast<size_t>(index)];
  if (m.name.empty()) return Status::InvalidArgument("measure name empty");
  for (int j = 0; j < index; ++j) {
    if (measures[static_cast<size_t>(j)].name == m.name) {
      return Status::InvalidArgument("duplicate measure name '" + m.name + "'");
    }
  }
  if (m.granularity.num_attributes() != schema.num_attributes()) {
    return Status::InvalidArgument("measure '" + m.name +
                                   "': granularity/schema width mismatch");
  }

  for (const MeasureEdge& e : m.edges) {
    if (e.source < 0 || e.source >= index) {
      return Status::InvalidArgument(
          "measure '" + m.name +
          "': edges must reference previously added measures (got " +
          std::to_string(e.source) + ")");
    }
    const Measure& src = measures[static_cast<size_t>(e.source)];
    switch (e.rel) {
      case Relationship::kSelf:
        if (!(src.granularity == m.granularity)) {
          return Status::InvalidArgument(
              "measure '" + m.name +
              "': self edge requires identical granularity to '" + src.name +
              "'");
        }
        break;
      case Relationship::kChildParent:
        if (!m.granularity.IsMoreGeneralOrEqual(src.granularity)) {
          return Status::InvalidArgument(
              "measure '" + m.name +
              "': child/parent edge requires the target to be more general "
              "than source '" +
              src.name + "'");
        }
        break;
      case Relationship::kParentChild:
        if (!src.granularity.IsMoreGeneralOrEqual(m.granularity)) {
          return Status::InvalidArgument(
              "measure '" + m.name +
              "': parent/child edge requires source '" + src.name +
              "' to be more general than the target");
        }
        break;
      case Relationship::kSibling: {
        if (!(src.granularity == m.granularity)) {
          return Status::InvalidArgument(
              "measure '" + m.name +
              "': sibling edge requires identical granularity to '" +
              src.name + "'");
        }
        const SiblingRange& r = e.sibling;
        if (r.attr < 0 || r.attr >= schema.num_attributes()) {
          return Status::InvalidArgument("measure '" + m.name +
                                         "': sibling attribute out of range");
        }
        const Hierarchy& h = schema.attribute(r.attr);
        if (h.kind() != AttributeKind::kNumeric) {
          return Status::InvalidArgument(
              "measure '" + m.name + "': sibling range on nominal attribute '" +
              h.name() + "' (closeness undefined, paper §II)");
        }
        if (h.is_all(m.granularity.level(r.attr))) {
          return Status::InvalidArgument(
              "measure '" + m.name + "': sibling range on attribute '" +
              h.name() + "' which sits at ALL in the measure granularity");
        }
        if (r.lo > r.hi) {
          return Status::InvalidArgument("measure '" + m.name +
                                         "': sibling range lo > hi");
        }
        break;
      }
    }
  }

  switch (m.op) {
    case MeasureOp::kAggregateRecords:
      if (!m.edges.empty()) {
        return Status::InvalidArgument("basic measure '" + m.name +
                                       "' must not have source edges");
      }
      if (m.field < 0 || m.field >= schema.num_attributes()) {
        return Status::InvalidArgument("basic measure '" + m.name +
                                       "': bad field index");
      }
      break;
    case MeasureOp::kAggregateSources: {
      if (m.edges.empty()) {
        return Status::InvalidArgument("composite measure '" + m.name +
                                       "' needs at least one source edge");
      }
      bool has_generating_edge = false;
      for (const MeasureEdge& e : m.edges) {
        if (e.rel != Relationship::kParentChild) has_generating_edge = true;
      }
      if (!has_generating_edge) {
        return Status::InvalidArgument(
            "composite measure '" + m.name +
            "' needs a region-generating edge (self, child/parent or "
            "sibling); parent/child edges only contribute values");
      }
      break;
    }
    case MeasureOp::kExpression: {
      if (m.expr.empty()) {
        return Status::InvalidArgument("expression measure '" + m.name +
                                       "' has an empty expression");
      }
      if (m.expr.MaxSourceIndex() >= static_cast<int>(m.edges.size())) {
        return Status::InvalidArgument(
            "expression measure '" + m.name +
            "' references a source edge it does not have");
      }
      // Each operand must yield exactly one value per target region, and
      // the output region set is seeded from a self edge.
      bool has_self_edge = false;
      for (const MeasureEdge& e : m.edges) {
        if (e.rel == Relationship::kSelf) has_self_edge = true;
        if (e.rel != Relationship::kSelf && e.rel != Relationship::kParentChild) {
          return Status::InvalidArgument(
              "expression measure '" + m.name +
              "' edges must be self or parent/child (single-valued)");
        }
      }
      if (!has_self_edge) {
        return Status::InvalidArgument(
            "expression measure '" + m.name +
            "' needs at least one self edge to define its region set");
      }
      break;
    }
  }
  return Status::OK();
}

}  // namespace

Result<Workflow> ConcatWorkflows(const std::vector<const Workflow*>& members) {
  if (members.empty()) {
    return Status::InvalidArgument("ConcatWorkflows: no member workflows");
  }
  for (const Workflow* member : members) {
    if (member == nullptr) {
      return Status::InvalidArgument("ConcatWorkflows: null member workflow");
    }
    if (member->schema() != members[0]->schema()) {
      // Pointer identity, not structural equality: sharing a scan only
      // makes sense for queries over the same registered dataset, and
      // those hold the same SchemaPtr.
      return Status::InvalidArgument(
          "ConcatWorkflows: members must share one schema instance");
    }
  }
  Workflow out;
  out.schema_ = members[0]->schema();
  int offset = 0;
  for (size_t q = 0; q < members.size(); ++q) {
    for (const Measure& m : members[q]->measures()) {
      Measure copy = m;
      // Appended into a fresh string: GCC 12 reports a false -Wrestrict
      // overlap on the inlined `"q" + std::string` form.
      std::string name = "q";
      name.append(std::to_string(q)).append(".").append(m.name);
      copy.name = std::move(name);
      for (MeasureEdge& e : copy.edges) e.source += offset;
      out.measures_.push_back(std::move(copy));
    }
    offset += members[q]->num_measures();
  }
  return out;
}

Result<Workflow> WorkflowBuilder::Build() && {
  if (!deferred_error_.ok()) return deferred_error_;
  if (measures_.empty()) {
    return Status::InvalidArgument("workflow has no measures");
  }
  for (int i = 0; i < static_cast<int>(measures_.size()); ++i) {
    CASM_RETURN_IF_ERROR(ValidateMeasure(*schema_, measures_, i));
  }
  Workflow wf;
  wf.schema_ = std::move(schema_);
  wf.measures_ = std::move(measures_);
  return wf;
}

}  // namespace casm
