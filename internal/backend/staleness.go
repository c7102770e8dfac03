package backend

import (
	"fmt"

	"fastliveness/internal/ir"
)

// Epochs is a snapshot of a function's two edit counters (ir.Func.CFGEpoch
// and InstrEpoch). Every Result records the snapshot it was computed at;
// comparing it against the function's current counters — through Stale —
// turns the invalidation contract each backend declares (Invalidation)
// into a runtime-checkable property instead of prose.
type Epochs struct {
	// CFG is the block/edge edit counter at analysis time.
	CFG uint64
	// Instr is the instruction edit counter at analysis time.
	Instr uint64
}

// EpochsOf snapshots f's current edit counters.
func EpochsOf(f *ir.Func) Epochs {
	return Epochs{CFG: f.CFGEpoch(), Instr: f.InstrEpoch()}
}

// Stale reports whether r no longer describes f, per r's declared
// invalidation class: a CFG edit since analysis stales every result; an
// instruction edit stales only results invalidated by any edit
// (materialized sets). The checker's CFG-only precomputation therefore
// reads as fresh across instruction edits — the paper's §4 property as a
// counter comparison, O(1) per check.
//
// r must have been computed for f (results do not record which function
// they analyzed beyond the epochs; callers pair them).
func Stale(r Result, f *ir.Func) bool {
	e := r.Epochs()
	if e.CFG != f.CFGEpoch() {
		return true
	}
	return r.Invalidation() == InvalidatedByAnyEdit && e.Instr != f.InstrEpoch()
}

// Checked wraps r in fail-closed staleness checking against f: every query
// or enumeration first runs Stale and panics when the result no longer
// describes the function. It is the debug-mode companion of the engine's
// transparent-rebuild path — tests and paranoid callers wrap analyses so a
// query against a dead analysis becomes a loud failure instead of a
// silently wrong answer.
func Checked(r Result, f *ir.Func) Result {
	return &checkedResult{r: r, f: f}
}

type checkedResult struct {
	r Result
	f *ir.Func
}

func (c *checkedResult) guard() {
	if Stale(c.r, c.f) {
		rec, now := c.r.Epochs(), EpochsOf(c.f)
		panic(fmt.Sprintf(
			"backend: stale %s result for %s: computed at epochs cfg=%d/instr=%d, function now at cfg=%d/instr=%d (invalidation class %s)",
			c.r.Backend(), c.f.Name, rec.CFG, rec.Instr, now.CFG, now.Instr, c.r.Invalidation()))
	}
}

func (c *checkedResult) IsLiveIn(v *ir.Value, b *ir.Block) bool {
	c.guard()
	return c.r.IsLiveIn(v, b)
}

func (c *checkedResult) IsLiveOut(v *ir.Value, b *ir.Block) bool {
	c.guard()
	return c.r.IsLiveOut(v, b)
}

func (c *checkedResult) LiveInSet(b *ir.Block) []*ir.Value {
	c.guard()
	return c.r.LiveInSet(b)
}

func (c *checkedResult) LiveOutSet(b *ir.Block) []*ir.Value {
	c.guard()
	return c.r.LiveOutSet(b)
}

func (c *checkedResult) MemoryBytes() int           { return c.r.MemoryBytes() }
func (c *checkedResult) Invalidation() Invalidation { return c.r.Invalidation() }
func (c *checkedResult) Backend() string            { return c.r.Backend() }
func (c *checkedResult) Epochs() Epochs             { return c.r.Epochs() }
