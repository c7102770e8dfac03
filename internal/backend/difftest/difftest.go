// Package difftest cross-validates every registered liveness backend
// against the iterative data-flow solver, the repository's ground truth.
// The data-flow baseline is the textbook algorithm whose correctness is
// independent of everything the other engines exploit (dominance, loop
// structure, reducibility), which is what makes it the reference: if a
// backend disagrees with it on any query, the backend is wrong.
//
// The corpus mixes the two random program sources on purpose. Package gen
// emits calibrated structured programs (φ-rich after SSA construction,
// optionally with irreducible "goto" gadgets); package graphgen emits raw
// rooted digraphs, including pathological and irreducible shapes the
// structured generator cannot reach, which FromGraph turns into strict-SSA
// functions by placing definitions and uses along the dominator tree.
// This is the differential-testing discipline of Barany's "Liveness-Driven
// Random Program Generation" applied to the paper's §6.2 engine comparison:
// every engine must answer every query identically.
package difftest

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"fastliveness"
	"fastliveness/internal/backend"
	"fastliveness/internal/cfg"
	"fastliveness/internal/core"
	"fastliveness/internal/dataflow"
	"fastliveness/internal/dom"
	"fastliveness/internal/gen"
	"fastliveness/internal/graphgen"
	"fastliveness/internal/ir"
	"fastliveness/internal/loops"
	"fastliveness/internal/regalloc"
	"fastliveness/internal/ssa"
)

// GroundTruth names the backend all others are validated against.
const GroundTruth = "dataflow"

// Corpus returns n random strict-SSA functions: half from the structured
// generator (every third one with an irreducible gadget, every fourth one
// pressure-biased à la Barany so dense functions are represented, not just
// the sparse Table 1 shape), half synthesized from raw random digraphs
// (irreducible with the default graphgen mix). Generation is deterministic
// in seed.
func Corpus(n int, seed int64) []*ir.Func {
	rng := rand.New(rand.NewSource(seed))
	funcs := make([]*ir.Func, 0, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("diff%03d", i)
		if i%2 == 0 {
			c := gen.Default(seed + int64(i))
			if i%8 == 2 {
				c = gen.HighPressure(seed + int64(i))
			}
			c.TargetBlocks = 4 + rng.Intn(40)
			c.Irreducible = i%6 == 0
			f := gen.Generate(name, c)
			ssa.Construct(f)
			funcs = append(funcs, f)
		} else {
			g := graphgen.Random(rng, graphgen.Config{
				MinNodes: 2, MaxNodes: 32, ExtraEdgeFactor: 1.5,
				BackEdgeProb: 0.4, AllowSelfLoops: true,
			})
			funcs = append(funcs, FromGraph(rng, g, name))
		}
	}
	return funcs
}

// FromGraph synthesizes a strict-SSA function whose CFG is exactly g
// (block i ↔ node i, successors in edge order). Definitions are placed by
// walking the dominator tree, each taking operands only from values defined
// in dominating blocks, so the result passes ssa.VerifyStrict without
// needing φs; graphgen guarantees every node is reachable from node 0.
func FromGraph(rng *rand.Rand, g *cfg.Graph, name string) *ir.Func {
	f := ir.NewFunc(name)
	blocks := make([]*ir.Block, g.N())
	for i := range blocks {
		kind := ir.BlockRet
		switch {
		case len(g.Succs[i]) == 1:
			kind = ir.BlockPlain
		case len(g.Succs[i]) == 2:
			kind = ir.BlockIf
		case len(g.Succs[i]) > 2:
			kind = ir.BlockSwitch
		}
		blocks[i] = f.NewBlock(kind)
	}
	for i, b := range blocks {
		for _, t := range g.Succs[i] {
			b.AddEdgeTo(blocks[t])
		}
	}

	// Seed the entry with parameters so every block has operands in scope.
	entry := blocks[0]
	avail := make([]*ir.Value, 0, 8)
	for i := 0; i < 2; i++ {
		avail = append(avail, entry.NewValueI(ir.OpParam, int64(i)))
	}

	// Dominator-tree walk: define values against dominating definitions,
	// and give every branch/switch/ret a control it is allowed to see.
	d := cfg.NewDFS(g)
	tree := dom.Iterative(g, d)
	pick := func() *ir.Value { return avail[rng.Intn(len(avail))] }
	var walk func(node int)
	walk = func(node int) {
		b := blocks[node]
		defs := 1 + rng.Intn(3)
		for i := 0; i < defs; i++ {
			var v *ir.Value
			if rng.Intn(6) == 0 {
				v = b.NewValueI(ir.OpConst, int64(rng.Intn(100)))
			} else {
				v = b.NewValue(ir.OpAdd, pick(), pick())
			}
			avail = append(avail, v)
		}
		if b.Kind != ir.BlockPlain {
			b.SetControl(pick())
		}
		mark := len(avail)
		for _, c := range tree.Children[node] {
			walk(c)
			avail = avail[:mark] // defs of a sibling subtree are out of scope
		}
	}
	walk(0)
	return f
}

// Mismatch describes one disagreement between a backend and the ground
// truth.
type Mismatch struct {
	Backend string
	Func    string
	Query   string // e.g. "live-in(%v3, b2)"
	Got     bool
	Want    bool
}

func (m *Mismatch) Error() string {
	return fmt.Sprintf("difftest: backend %s on %s: %s = %v, ground truth %s says %v",
		m.Backend, m.Func, m.Query, m.Got, GroundTruth, m.Want)
}

// Validate runs every registered backend on f and checks every
// IsLiveIn/IsLiveOut answer, every enumerated live set, and the Interfere
// relation of the public API against the data-flow ground truth. The
// loops backend is allowed — required — to fail with loops.ErrIrreducible
// on irreducible control flow; any other analysis failure, and any answer
// disagreement, is returned as an error.
func Validate(f *ir.Func) error {
	truth := dataflow.Analyze(f)
	for _, name := range backend.Names() {
		b, err := backend.Get(name)
		if err != nil {
			return err
		}
		res, err := b.Analyze(f)
		if err != nil {
			if name == "loops" && errors.Is(err, loops.ErrIrreducible) {
				continue
			}
			return fmt.Errorf("difftest: backend %s on %s: %w", name, f.Name, err)
		}
		if err := compare(name, f, res, truth); err != nil {
			return err
		}
	}
	return compareInterfere(f)
}

// interferePairCap bounds the quadratic pair walk of compareInterfere; on
// bigger functions the pairs are stride-sampled deterministically.
const interferePairCap = 4096

// compareInterfere cross-checks the public API's Interfere relation: the
// checker-backed and the dataflow-backed analyses route the live-out test
// of the Budimlić algorithm through different engines, so both must
// classify every sampled value pair identically.
func compareInterfere(f *ir.Func) error {
	chk, err := fastliveness.Analyze(f, fastliveness.Config{Backend: "checker"})
	if err != nil {
		return err
	}
	df, err := fastliveness.Analyze(f, fastliveness.Config{Backend: GroundTruth})
	if err != nil {
		return err
	}
	var vals []*ir.Value
	f.Values(func(v *ir.Value) {
		if v.Op.HasResult() {
			vals = append(vals, v)
		}
	})
	n := len(vals)
	stride := 1
	if n*n > interferePairCap {
		// Keep the stride coprime to n: y = vals[k%n], so a shared factor
		// would confine y to one residue class and blind the sweep to
		// whole columns of the pair matrix.
		for stride = n * n / interferePairCap; gcd(stride, n) != 1; stride++ {
		}
	}
	for k := 0; k < n*n; k += stride {
		x, y := vals[k/n], vals[k%n]
		want := chk.Interfere(x, y)
		if got := df.Interfere(x, y); got != want {
			return fmt.Errorf("difftest: %s: Interfere(%s, %s) = %v via %s, %v via checker",
				f.Name, x, y, got, GroundTruth, want)
		}
	}
	return nil
}

// compare checks res against the ground truth on every (value, block) pair
// and on whole-set enumeration.
func compare(name string, f *ir.Func, res backend.Result, truth *dataflow.Result) error {
	var firstErr error
	f.Values(func(v *ir.Value) {
		if !v.Op.HasResult() || firstErr != nil {
			return
		}
		for _, b := range f.Blocks {
			if got, want := res.IsLiveIn(v, b), truth.IsLiveIn(v, b); got != want {
				firstErr = &Mismatch{Backend: name, Func: f.Name,
					Query: fmt.Sprintf("live-in(%s, %s)", v, b), Got: got, Want: want}
				return
			}
			if got, want := res.IsLiveOut(v, b), truth.IsLiveOut(v, b); got != want {
				firstErr = &Mismatch{Backend: name, Func: f.Name,
					Query: fmt.Sprintf("live-out(%s, %s)", v, b), Got: got, Want: want}
				return
			}
		}
	})
	if firstErr != nil {
		return firstErr
	}
	// Enumerated sets must hold exactly the values the queries say are
	// live; backends enumerate in different (deterministic) orders, so
	// compare as ID sets.
	for _, b := range f.Blocks {
		for _, dir := range []struct {
			kind string
			set  func(*ir.Block) []*ir.Value
			live func(*ir.Value, *ir.Block) bool
		}{
			{"live-in", res.LiveInSet, truth.IsLiveIn},
			{"live-out", res.LiveOutSet, truth.IsLiveOut},
		} {
			got := ids(dir.set(b))
			var want []int
			f.Values(func(v *ir.Value) {
				if v.Op.HasResult() && dir.live(v, b) {
					want = append(want, v.ID)
				}
			})
			sort.Ints(want)
			if !equalInts(got, want) {
				return fmt.Errorf("difftest: backend %s on %s: %s set of %s = %v, ground truth %v",
					name, f.Name, dir.kind, b, got, want)
			}
		}
	}
	return nil
}

// CheckerConfigs enumerates the checker configurations that must stay
// answer-identical: both T-set strategies, which build different (though
// answer-equivalent) T arenas, each with the §5.1 subtree skip and the
// Theorem 2 fast path on or off. Validate covers the registered backends
// under default options; this axis covers the checker's own option space.
func CheckerConfigs() []core.Options {
	var out []core.Options
	for _, s := range []core.Strategy{core.StrategyExact, core.StrategyPropagate} {
		for _, noSkip := range []bool{false, true} {
			for _, noFast := range []bool{false, true} {
				out = append(out, core.Options{Strategy: s, NoSkipSubtrees: noSkip, NoReducibleFastPath: noFast})
			}
		}
	}
	return out
}

// ValidateCheckerStorage cross-checks the checker under every
// CheckerConfigs combination against the data-flow ground truth on f:
// every live-in/live-out query and both enumerated sets of every block.
func ValidateCheckerStorage(f *ir.Func) error {
	truth := dataflow.Analyze(f)
	p, err := backend.Prepare(f)
	if err != nil {
		return fmt.Errorf("difftest: checker on %s: %w", f.Name, err)
	}
	for _, opts := range CheckerConfigs() {
		name := fmt.Sprintf("checker %+v", opts)
		if err := compare(name, f, backend.NewCheckerResult(p, opts), truth); err != nil {
			return err
		}
	}
	return nil
}

// ValidatePressure cross-checks per-block liveness *sizes* — register
// pressure, the quantity the regalloc subsystem is built on — against the
// data-flow ground truth: every set-producing backend's materialized
// live-in/live-out cardinalities must match the ground truth's, and the
// oracle-driven regalloc.MeasurePressure walk must report identical
// per-block pressure through every backend (checker included) as through
// the ground truth itself. Membership checks (Validate) would catch any
// set disagreement too; this pins the derived counts the allocator and
// the spill heuristics consume directly.
func ValidatePressure(f *ir.Func) error {
	truth := dataflow.Analyze(f)
	want := regalloc.MeasurePressure(f, truth)
	for _, name := range backend.Names() {
		b, err := backend.Get(name)
		if err != nil {
			return err
		}
		res, err := b.Analyze(f)
		if err != nil {
			if name == "loops" && errors.Is(err, loops.ErrIrreducible) {
				continue
			}
			return fmt.Errorf("difftest: backend %s on %s: %w", name, f.Name, err)
		}
		if res.Invalidation() == backend.InvalidatedByAnyEdit {
			for i, blk := range f.Blocks {
				if got, wantN := len(res.LiveInSet(blk)), truth.LiveIn[i].Count(); got != wantN {
					return fmt.Errorf("difftest: backend %s on %s: |live-in(%s)| = %d, ground truth %d",
						name, f.Name, blk, got, wantN)
				}
				if got, wantN := len(res.LiveOutSet(blk)), truth.LiveOut[i].Count(); got != wantN {
					return fmt.Errorf("difftest: backend %s on %s: |live-out(%s)| = %d, ground truth %d",
						name, f.Name, blk, got, wantN)
				}
			}
		}
		got := regalloc.MeasurePressure(f, res)
		if got.Max != want.Max {
			return fmt.Errorf("difftest: backend %s on %s: max pressure %d, ground truth %d",
				name, f.Name, got.Max, want.Max)
		}
		for i, blk := range f.Blocks {
			if got.PerBlock[i] != want.PerBlock[i] {
				return fmt.Errorf("difftest: backend %s on %s: pressure(%s) = %d, ground truth %d",
					name, f.Name, blk, got.PerBlock[i], want.PerBlock[i])
			}
		}
	}
	return nil
}

// ValidateAll is Validate over a whole corpus, failing on the first
// disagreement.
func ValidateAll(funcs []*ir.Func) error {
	for _, f := range funcs {
		if err := Validate(f); err != nil {
			return err
		}
	}
	return nil
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func ids(vs []*ir.Value) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = v.ID
	}
	sort.Ints(out)
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
