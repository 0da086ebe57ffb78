// Copyright 2026 The CASM Authors. Licensed under the Apache License 2.0.
//
// Shared semantics for deriving composite measures from their sources.
// Both the reference evaluator and the per-block sort/scan evaluator call
// into this so that "which regions produce a value and what is it" is
// defined in exactly one place:
//
//  * kExpression: one output per region where every operand (self edges at
//    the region itself, parent/child edges at the containing parent) is
//    present; output regions are seeded by the self edges.
//  * kAggregateSources: self / child-parent / sibling edges *generate*
//    output regions and contribute values; parent/child edges only
//    contribute to regions generated by the other edges. A sibling source
//    at coordinate c contributes to targets with window-attribute
//    coordinates in [c - hi, c - lo], clipped to the attribute's domain.

#ifndef CASM_LOCAL_DERIVATION_H_
#define CASM_LOCAL_DERIVATION_H_

#include "common/cancellation.h"
#include "local/measure_table.h"
#include "measure/workflow.h"

namespace casm {

/// Computes composite measure `index` of `wf` from the already computed
/// source maps in `results` and stores its values into
/// `results->mutable_values(index)`. Requires the measure to be composite
/// and its sources present.
void DeriveCompositeMeasure(const Workflow& wf, int index,
                            MeasureResultSet* results);

/// Derives every composite measure of `wf` in dependency (index) order
/// from the basic measures already in `results`, polling `cancel` (may be
/// null) before each. Returns false if cancelled; the partial `results`
/// are then to be discarded.
bool DeriveComposites(const Workflow& wf, MeasureResultSet* results,
                      const CancellationToken* cancel);

}  // namespace casm

#endif  // CASM_LOCAL_DERIVATION_H_
