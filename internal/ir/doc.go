// Package ir defines the SSA intermediate representation the liveness
// engines operate on: functions of basic blocks holding values
// (instructions), with maintained def-use chains.
//
// The representation follows the prerequisites the paper lists in §1:
//   - a control-flow graph G = (V, E, r) whose entry r has no incoming edge,
//   - strict SSA (each variable has a single definition that dominates all
//     its uses),
//   - def-use chains per variable, cheap to keep current under edits.
//
// A "variable" in the paper's sense is simply a *Value with a result here —
// SSA makes values and variables interchangeable. φ-functions use their
// arguments at the corresponding predecessor block (paper Definition 1);
// Use.Block implements exactly that placement, and is what the
// fastliveness facade reads fresh at query time, so liveness answers track
// program edits without re-analysis.
//
// The query side of the paper needs only stable block identities and
// def-use chains; the transformation side (SplitEdge, SplitCriticalEdges)
// provides the one CFG change SSA destruction performs up front (§6.2), and
// parse.go/print.go give the textual round-trip format (.ssair) that
// cmd/livecheck and the test suite use. Programs may also exist in non-SSA
// "slot form" (OpSlotLoad/OpSlotStore on mutable variable slots); package
// ssa converts slot form into strict SSA.
//
// # Edit tracking
//
// Every mutation is classified into one of the paper's two edit classes
// and counted by a monotonic epoch on Func:
//
//   - CFG edits (NewBlock, AddEdgeTo, SplitEdge, SplitCriticalEdges,
//     RemoveBlock) advance CFGEpoch. They invalidate every liveness
//     analysis, including the paper's checker.
//   - Instruction edits (NewValue*, InsertValue*, RemoveValue[At],
//     RotateValuesToFront, AddArg, SetArg, ClearArgs, SetControl) advance
//     InstrEpoch. They invalidate only analyses that materialize explicit
//     per-block sets; the checker's CFG-only precomputation survives them —
//     the paper's §4 headline property, now a checked invariant rather
//     than a calling convention (internal/backend.Stale compares an
//     analysis result's recorded epochs against the function's).
//
// Passes must therefore mutate through these methods, never through raw
// slice surgery on Blocks/Values/Succs/Preds, or staleness detection is
// silently defeated. The FuzzMutations test drives random method sequences
// and asserts the epochs advance exactly when the relevant class is
// touched.
package ir
