// Package regalloc is an SSA-based register allocator driven by the
// liveness oracle — the repository's second real client workload after SSA
// destruction (internal/destruct), and the other pass the paper names as a
// consumer of fast liveness checking (§1: JIT register allocation, §6.2:
// the Budimlić interference test "register allocators are built on").
//
// The allocator is a dominance-order scan in the style of Hack et al.:
// interference graphs of strict-SSA programs are chordal, and walking the
// dominator tree in preorder visits definitions in a perfect elimination
// order, so greedily assigning each definition the lowest free register
// colors the program with max-pressure registers — the chordal optimum —
// without ever materializing an interference graph. Where the register
// budget k is exceeded, the allocator spills greedily (furthest next use,
// à la Belady) and rescans.
//
// Every decision is a liveness query:
//
//   - block-entry occupancy: one IsLiveIn(v, b) per value defined on the
//     dominator path — which registers are taken when the scan enters b;
//   - death points: one IsLiveOut(v, b) per last in-block use — whether a
//     register frees mid-block or stays occupied past the block;
//   - register pressure (MeasurePressure): IsLiveOut over each value's
//     dominance subtree, refined by a backward in-block walk.
//
// The paper's headline property is what makes the spill loop cheap with
// the checker as oracle: spill code insertion adds stores, reloads and
// rematerialized constants but never touches the CFG, so the checker's
// R/T precomputation — and every answer it gives — stays valid across
// rounds. Set-producing oracles (dataflow, lao, pervar, loops) are
// invalidated by any edit; since every IR mutation now bumps the
// function's edit epochs, staleness is the oracle's own problem, not this
// package's — pass a self-refreshing oracle (the fastliveness Engine's
// Oracle) and it re-analyzes exactly when the spill edits demand, while
// the checker never does. cmd/benchtables -table
// regalloc and -table pipeline measure exactly that asymmetry on the
// allocator's genuine query stream.
package regalloc

import (
	"errors"
	"fmt"

	"fastliveness/internal/cfg"
	"fastliveness/internal/dom"
	"fastliveness/internal/ir"
)

// Oracle answers the liveness queries the allocator issues. It is the
// destruct.Oracle shape extended with the live-in query the scan needs for
// block-entry occupancy. The production choice is the paper's checker (a
// *fastliveness.Liveness satisfies it directly, and goroutines may share
// one); a
// *fastliveness.Oracle satisfies it under any backend and refreshes itself
// across the spill edits. Every internal/backend Result satisfies it too,
// which is how the harness times all engines on the identical query
// stream.
type Oracle interface {
	IsLiveIn(v *ir.Value, b *ir.Block) bool
	IsLiveOut(v *ir.Value, b *ir.Block) bool
}

// ErrTooFewRegisters is returned (wrapped) when some program point needs
// more than k registers even after every spillable value has been spilled
// — e.g. a block with more φs than registers, or an instruction whose
// operands and live-through values alone exceed k.
var ErrTooFewRegisters = errors.New("regalloc: register budget too small")

// Stats reports what the allocator did and what it asked the oracle.
type Stats struct {
	// Rounds is the number of dominance-order scans (1 = spill-free).
	Rounds int
	// Spills is the number of values spilled or rematerialized.
	Spills int
	// Stores, Reloads and Remats count inserted spill instructions.
	Stores, Reloads, Remats int
	// LiveInQueries and LiveOutQueries count oracle calls; Queries() sums.
	LiveInQueries, LiveOutQueries int
}

// Queries is the total number of oracle queries issued.
func (s Stats) Queries() int { return s.LiveInQueries + s.LiveOutQueries }

// Allocation is the result of a successful Run.
type Allocation struct {
	// K is the register budget the allocation respects.
	K int
	// Reg maps value ID -> assigned register in [0, K), or -1 for values
	// that define no result. Every result-defining value has a register:
	// spilled values keep one for their (now short) def-to-store range,
	// reloads and rematerialized constants for their load-to-use range.
	Reg []int
	// NumRegs is the number of distinct registers actually used. For
	// spill-free runs it is at most the function's max register pressure
	// (the chordal bound); VerifyAllocation checks exactly that.
	NumRegs int
	// Spilled lists the values demoted to slots or rematerialized, in
	// spill order.
	Spilled []*ir.Value
	Stats   Stats
}

// RegOf returns v's register, or -1.
func (a *Allocation) RegOf(v *ir.Value) int {
	if v.ID >= len(a.Reg) {
		return -1
	}
	return a.Reg[v.ID]
}

// Run allocates k registers for the strict-SSA function f, spilling (in
// place: stores after definitions, reloads before uses, constants and
// parameters rematerialized) until the scan fits. The oracle must answer
// liveness for f *as currently edited* at every query: the paper's checker
// does so natively (spill code never touches the CFG), and oracles built
// on materialized sets must self-refresh — serve them through a
// fastliveness Engine Oracle, which detects the spill edits through the
// function's instruction epoch. There is no manual refresh hook. On success f is unchanged except for inserted
// spill code, and the returned Allocation maps every result-defining value
// — including spill artifacts — to a register. On ErrTooFewRegisters the
// returned Allocation is partial — Stats and Spilled only, no register
// assignment — describing the failed attempt, whose spill edits remain in
// f; other errors return a nil Allocation.
func Run(f *ir.Func, oracle Oracle, k int) (*Allocation, error) {
	if k < 1 {
		return nil, fmt.Errorf("regalloc: k = %d, need at least one register", k)
	}
	a := New(f, oracle, k)
	maxRounds := f.NumValues() + 2 // each round spills a distinct value
	for {
		if a.Scan() {
			break
		}
		if a.stats.Rounds > maxRounds {
			return nil, fmt.Errorf("regalloc: %s: spill loop did not converge after %d rounds", f.Name, a.stats.Rounds)
		}
		victim := a.chooseVictim()
		if victim == nil {
			// Report the failed attempt's work alongside the error: the
			// spill edits stay in f, so callers that retry with a wider
			// budget (the pipeline's doubling loop) can keep their spill
			// accounting consistent with the emitted program. The partial
			// Allocation carries Stats and Spilled only — no register
			// assignment.
			return &Allocation{K: k, Spilled: a.spilled, Stats: a.stats},
				fmt.Errorf("%w: %s needs more than %d registers to define %s in %s (k too small for its unspillable values)",
					ErrTooFewRegisters, f.Name, k, a.fault.v, a.fault.b)
		}
		a.spill(victim)
		a.grow()
	}
	if a.err != nil {
		return nil, a.err
	}
	reg := make([]int, len(a.reg))
	for i, r := range a.reg {
		reg[i] = int(r)
	}
	return &Allocation{
		K:       k,
		Reg:     reg,
		NumRegs: a.numRegs,
		Spilled: a.spilled,
		Stats:   a.stats,
	}, nil
}

// Allocator holds the reusable state of the dominance-order scan for one
// function. New prepares it once; Scan may be called repeatedly (the spill
// loop does, and the allocation-regression tests pin that steady-state
// rescans allocate nothing).
type Allocator struct {
	f      *ir.Func
	oracle Oracle
	k      int

	tree   *dom.Tree
	blocks []*ir.Block // CFG node -> block (creation order, like cfg.FromFunc)

	reg         []int32 // value ID -> register, -1 = none
	pos         []int32 // value ID -> index within its block
	unspillable []bool  // value ID -> spill artifact or already spilled

	occ      []bool      // register -> occupied at the current scan point
	owner    []*ir.Value // register -> owning value while occupied
	domStack []*ir.Value // values defined along the current dominator path
	frames   []scanFrame

	numRegs int
	stats   Stats
	spilled []*ir.Value
	fault   scanFault
	err     error
}

type scanFrame struct {
	node int
	next int // next dominator-tree child to visit
	mark int // domStack length on entry
}

// scanFault describes the first point of a failed scan: the value that
// found no free register and the owners occupying all k registers there.
type scanFault struct {
	v      *ir.Value
	b      *ir.Block
	pos    int32 // in-block position of v; -1 for φ definitions
	owners []*ir.Value
}

// New prepares an allocator for f with the given oracle and budget.
func New(f *ir.Func, oracle Oracle, k int) *Allocator {
	g, _ := cfg.FromFunc(f)
	d := cfg.NewDFS(g)
	a := &Allocator{
		f:      f,
		oracle: oracle,
		k:      k,
		tree:   dom.Iterative(g, d),
		blocks: append([]*ir.Block(nil), f.Blocks...),
		occ:    make([]bool, k),
		owner:  make([]*ir.Value, k),
	}
	a.grow()
	return a
}

// grow extends the value-ID-indexed tables after spill code added values.
func (a *Allocator) grow() {
	n := a.f.NumValues()
	for len(a.reg) < n {
		a.reg = append(a.reg, -1)
	}
	for len(a.pos) < n {
		a.pos = append(a.pos, 0)
	}
	for len(a.unspillable) < n {
		a.unspillable = append(a.unspillable, false)
	}
}

func (a *Allocator) liveIn(v *ir.Value, b *ir.Block) bool {
	a.stats.LiveInQueries++
	return a.oracle.IsLiveIn(v, b)
}

func (a *Allocator) liveOut(v *ir.Value, b *ir.Block) bool {
	a.stats.LiveOutQueries++
	return a.oracle.IsLiveOut(v, b)
}

// Scan runs one dominance-order scan over the current program, reusing
// every buffer from earlier scans (steady-state rescans allocate nothing).
// It reports whether the register budget sufficed; on false, the fault is
// recorded for the spill machinery.
func (a *Allocator) Scan() bool {
	a.stats.Rounds++
	for i := range a.reg {
		a.reg[i] = -1
	}
	a.numRegs = 0
	// In-block positions, for last-use and death tests.
	for _, b := range a.f.Blocks {
		for i, v := range b.Values {
			a.pos[v.ID] = int32(i)
		}
	}
	a.domStack = a.domStack[:0]
	a.frames = a.frames[:0]
	a.frames = append(a.frames, scanFrame{node: 0, mark: 0})
	for len(a.frames) > 0 {
		fr := &a.frames[len(a.frames)-1]
		if fr.next == 0 {
			if !a.scanBlock(a.blocks[fr.node]) {
				return false
			}
		}
		if fr.next < len(a.tree.Children[fr.node]) {
			c := a.tree.Children[fr.node][fr.next]
			fr.next++
			a.frames = append(a.frames, scanFrame{node: c, mark: len(a.domStack)})
			continue
		}
		a.domStack = a.domStack[:fr.mark]
		a.frames = a.frames[:len(a.frames)-1]
	}
	return true
}

// scanBlock assigns registers within b: entry occupancy from live-in
// queries over the dominator path, φs as a simultaneous group, then a
// forward walk freeing dying operands before each definition.
func (a *Allocator) scanBlock(b *ir.Block) bool {
	for r := 0; r < a.k; r++ {
		a.occ[r] = false
		a.owner[r] = nil
	}
	for _, v := range a.domStack {
		r := a.reg[v.ID]
		if r < 0 {
			continue
		}
		if a.liveIn(v, b) {
			if a.occ[r] && a.err == nil {
				a.err = fmt.Errorf("regalloc: internal: %s and %s both live-in at %s share r%d",
					a.owner[r], v, b, r)
			}
			a.occ[r] = true
			a.owner[r] = v
		}
	}
	phis := b.Phis()
	for _, v := range phis {
		if !a.assign(v, b, -1) {
			return false
		}
	}
	// φs define simultaneously at block entry; only after the whole group
	// holds registers may the dead ones release theirs.
	for _, v := range phis {
		if a.diesAt(v, b, -1) {
			a.release(v)
		}
	}
	for _, v := range b.Values[len(phis):] {
		vpos := a.pos[v.ID]
		for _, arg := range v.Args {
			r := a.reg[arg.ID]
			if r >= 0 && a.occ[r] && a.owner[r] == arg && a.diesAt(arg, b, vpos) {
				a.release(arg)
			}
		}
		if !v.Op.HasResult() {
			continue
		}
		if !a.assign(v, b, vpos) {
			return false
		}
		if a.diesAt(v, b, vpos) {
			a.release(v) // dead past its definition point: occupy only there
		}
	}
	return true
}

// assign gives v the lowest free register, recording a fault when none is.
func (a *Allocator) assign(v *ir.Value, b *ir.Block, vpos int32) bool {
	for r := 0; r < a.k; r++ {
		if a.occ[r] {
			continue
		}
		a.occ[r] = true
		a.owner[r] = v
		a.reg[v.ID] = int32(r)
		a.domStack = append(a.domStack, v)
		if r+1 > a.numRegs {
			a.numRegs = r + 1
		}
		return true
	}
	a.fault.v = v
	a.fault.b = b
	a.fault.pos = vpos
	a.fault.owners = a.fault.owners[:0]
	for r := 0; r < a.k; r++ {
		a.fault.owners = append(a.fault.owners, a.owner[r])
	}
	return false
}

// release frees v's register (v stays assigned; the register is just
// reusable past v's death point).
func (a *Allocator) release(v *ir.Value) {
	r := a.reg[v.ID]
	if r >= 0 && a.owner[r] == v {
		a.occ[r] = false
		a.owner[r] = nil
	}
}

// diesAt reports whether v is dead after position vpos of block b: no use
// later in b, no use anchored at b's end (control operand, φ operand of a
// successor), and not live-out. Called with vpos = the position of v's last
// potential death point; issues at most one IsLiveOut query.
func (a *Allocator) diesAt(v *ir.Value, b *ir.Block, vpos int32) bool {
	for _, u := range v.Uses() {
		switch {
		case u.UserBlock != nil:
			if u.UserBlock == b {
				return false // control operand: used at b's end
			}
		case u.User.Op == ir.OpPhi:
			if u.User.Block.Preds[u.Index].B == b {
				return false // φ operand: used at b's end
			}
		case u.User.Block == b && a.pos[u.User.ID] > vpos:
			return false // a later use within b
		}
	}
	return !a.liveOut(v, b)
}

// chooseVictim picks the spill candidate from the recorded fault: the
// spillable owner with the furthest next use in the fault block (absence of
// a next use counts as furthest — Belady's rule at block granularity).
// φs of the fault block are excluded when the fault is at the φ group
// itself: a spilled φ still occupies a register across the simultaneous
// entry definitions, so spilling one cannot relieve that fault. Returns
// nil when no owner qualifies.
func (a *Allocator) chooseVictim() *ir.Value {
	var best *ir.Value
	bestDist := int32(-1)
	for _, w := range a.fault.owners {
		if w == nil || a.unspillable[w.ID] {
			continue
		}
		if a.fault.pos < 0 && w.Op == ir.OpPhi && w.Block == a.fault.b {
			continue
		}
		dist := a.nextUseDistance(w)
		if dist > bestDist || (dist == bestDist && best != nil && w.ID < best.ID) {
			best, bestDist = w, dist
		}
	}
	return best
}

// nextUseDistance returns how far past the fault point w's next use in the
// fault block is, or a sentinel "beyond the block" distance when w has no
// further in-block use.
func (a *Allocator) nextUseDistance(w *ir.Value) int32 {
	const beyond = int32(1) << 30
	next := beyond
	for _, u := range w.Uses() {
		if u.User == nil || u.UserBlock != nil || u.User.Op == ir.OpPhi {
			continue
		}
		if u.User.Block == a.fault.b && a.pos[u.User.ID] > a.fault.pos {
			if d := a.pos[u.User.ID] - a.fault.pos - 1; d < next {
				next = d
			}
		}
	}
	return next
}
