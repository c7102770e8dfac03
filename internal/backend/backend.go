// Package backend unifies the repository's four liveness engines behind one
// interface, so that consumers (the public fastliveness API, the CLIs, the
// benchmark harness and the differential tests) select an engine by name
// instead of hard-wiring one. Each has one job:
//
//   - checker: the paper's R/T checker (internal/core);
//   - dataflow: the bit-vector data-flow ground truth (internal/dataflow);
//   - lao: the LAO-style native solver, Table 2's baseline (internal/lao);
//   - pervar: the per-variable walker (internal/pervar), the one engine
//     that enumerates live sets (AnalyzeSets).
//
// The paper's evaluation (§6.2, Tables 1–2) is exactly such a comparison of
// engines answering the same queries; the registry here is what lets every
// comparison iterate over Names() instead of re-wiring each engine by hand.
//
// Contract: Analyze requires a structurally valid function (ir.Verify) in
// strict SSA with every block reachable from the entry, and its Prepare
// result; Prepare enforces reachability. All backends answer queries under
// the paper's Definition 1 φ convention and agree answer-for-answer on any
// CFG, reducible or not — internal/backend/difftest cross-validates every
// registered backend against the data-flow ground truth on random
// reducible and irreducible programs.
package backend

import (
	"fmt"
	"sort"
	"sync"

	"fastliveness/internal/ir"
)

// Invalidation classifies what program edits invalidate a Result.
type Invalidation uint8

const (
	// InvalidatedByCFGChanges marks results whose precomputation depends
	// only on the CFG (the paper's headline property): adding or removing
	// instructions, variables or uses never invalidates them; only block
	// or edge edits do.
	InvalidatedByCFGChanges Invalidation = iota
	// InvalidatedByAnyEdit marks results that store explicit per-block
	// live sets; any program edit (even instruction-only) invalidates
	// them. Results of this kind enumerate sets natively, so LiveInSet
	// and LiveOutSet cost O(live values), not one query per value.
	InvalidatedByAnyEdit
)

// String names the invalidation kind for stats and logs.
func (i Invalidation) String() string {
	switch i {
	case InvalidatedByCFGChanges:
		return "cfg-changes"
	case InvalidatedByAnyEdit:
		return "any-edit"
	}
	return fmt.Sprintf("invalidation(%d)", uint8(i))
}

// Result answers liveness queries for one analyzed function. Every Result
// is safe for concurrent queries.
type Result interface {
	// IsLiveIn reports whether v is live-in at b (paper Definition 2).
	IsLiveIn(v *ir.Value, b *ir.Block) bool
	// IsLiveOut reports whether v is live-out at b (paper Definition 3).
	IsLiveOut(v *ir.Value, b *ir.Block) bool
	// LiveInSet enumerates the values live-in at b, in a deterministic
	// per-backend order (ascending value ID for dataflow and pervar,
	// program order for the checker and lao); callers needing a specific
	// order sort.
	LiveInSet(b *ir.Block) []*ir.Value
	// LiveOutSet enumerates the values live-out at b; see LiveInSet.
	LiveOutSet(b *ir.Block) []*ir.Value
	// MemoryBytes reports the payload footprint of the precomputed or
	// materialized sets (the §6.1 comparison axis).
	MemoryBytes() int
	// Invalidation reports which program edits invalidate this result.
	Invalidation() Invalidation
	// Epochs reports the function edit epochs this result was computed
	// at; Stale compares them against the live function under the
	// result's Invalidation class.
	Epochs() Epochs
	// Backend names the backend that produced this result.
	Backend() string
}

// Backend is one liveness engine.
type Backend interface {
	// Name is the registry key.
	Name() string
	// Analyze runs the engine on f. p is the Prepare result for f: the
	// checker builds on it, the set engines ignore it.
	Analyze(f *ir.Func, p *Prep) (Result, error)
}

// DefaultName is the backend used when a Config leaves the name empty: the
// paper's R/T checker.
const DefaultName = "checker"

var registry = struct {
	sync.RWMutex
	m map[string]Backend
}{m: make(map[string]Backend)}

// Register adds b under b.Name(). Registering a duplicate name panics:
// backend names are part of the public configuration surface.
func Register(b Backend) {
	registry.Lock()
	defer registry.Unlock()
	name := b.Name()
	if _, dup := registry.m[name]; dup {
		panic(fmt.Sprintf("backend: duplicate registration of %q", name))
	}
	registry.m[name] = b
}

// Get looks a backend up by name; the empty name resolves to DefaultName.
func Get(name string) (Backend, error) {
	if name == "" {
		name = DefaultName
	}
	registry.RLock()
	b, ok := registry.m[name]
	registry.RUnlock()
	if !ok {
		return nil, fmt.Errorf("backend: unknown backend %q (registered: %v)", name, Names())
	}
	return b, nil
}

// Names returns every registered backend name, sorted.
func Names() []string {
	registry.RLock()
	out := make([]string, 0, len(registry.m))
	for name := range registry.m {
		out = append(out, name)
	}
	registry.RUnlock()
	sort.Strings(out)
	return out
}
