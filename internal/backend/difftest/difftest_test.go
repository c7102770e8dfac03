package difftest

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"fastliveness/internal/backend"
	"fastliveness/internal/dataflow"
	"fastliveness/internal/graphgen"
	"fastliveness/internal/ir"
	"fastliveness/internal/regalloc"
	"fastliveness/internal/ssa"
)

// The acceptance criterion of the backend layer: every registered backend
// answers every query identically to the data-flow ground truth on ≥ 100
// random functions, reducible and irreducible alike.
func TestAllBackendsAgreeOnRandomCorpus(t *testing.T) {
	funcs := Corpus(120, 20260730)
	if err := ValidateAll(funcs); err != nil {
		t.Fatal(err)
	}
}

// Every checker configuration — both precompute strategies, each with the
// §5.1 skip and the Theorem 2 fast path on or off — must answer
// identically to the ground truth.
func TestCheckerStorageConfigsAgree(t *testing.T) {
	n := 60
	if testing.Short() {
		n = 16
	}
	for _, f := range Corpus(n, 20260731) {
		if err := ValidateCheckerStorage(f); err != nil {
			t.Fatal(err)
		}
	}
}

// The corpus must genuinely exercise both CFG classes and be strict SSA —
// otherwise the agreement test above proves less than it claims.
func TestCorpusShape(t *testing.T) {
	funcs := Corpus(120, 20260730)
	if len(funcs) < 100 {
		t.Fatalf("corpus has %d functions, want >= 100", len(funcs))
	}
	reducible, irreducible := 0, 0
	for _, f := range funcs {
		if err := ssa.VerifyStrict(f); err != nil {
			t.Fatalf("%s: not strict SSA: %v", f.Name, err)
		}
		p, err := backend.Prepare(f)
		if err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if p.Reducible() {
			reducible++
		} else {
			irreducible++
		}
	}
	if reducible < 10 || irreducible < 10 {
		t.Fatalf("corpus mix too thin: %d reducible, %d irreducible", reducible, irreducible)
	}
}

func TestFromGraphMirrorsGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		g := graphgen.Random(rng, graphgen.Default)
		f := FromGraph(rng, g, "mirror")
		if err := ssa.VerifyStrict(f); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(f.Blocks) != g.N() {
			t.Fatalf("trial %d: %d blocks, graph has %d nodes", trial, len(f.Blocks), g.N())
		}
		for i, b := range f.Blocks {
			if len(b.Succs) != len(g.Succs[i]) {
				t.Fatalf("trial %d: block %d has %d successors, node has %d",
					trial, i, len(b.Succs), len(g.Succs[i]))
			}
			for j, e := range b.Succs {
				if e.B != f.Blocks[g.Succs[i][j]] {
					t.Fatalf("trial %d: edge %d->%d mismatches graph", trial, i, j)
				}
			}
		}
	}
}

// liar wraps a correct Result but negates one live-in answer; compare must
// report it as a Mismatch rather than letting it through.
type liar struct {
	backend.Result
	v *ir.Value
	b *ir.Block
}

func (l liar) IsLiveIn(v *ir.Value, b *ir.Block) bool {
	if v == l.v && b == l.b {
		return !l.Result.IsLiveIn(v, b)
	}
	return l.Result.IsLiveIn(v, b)
}

func TestCompareCatchesDisagreement(t *testing.T) {
	funcs := Corpus(4, 99)
	f := funcs[0]
	b, err := backend.Get(GroundTruth)
	if err != nil {
		t.Fatal(err)
	}
	p, err := backend.Prepare(f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Analyze(f, p)
	if err != nil {
		t.Fatal(err)
	}
	var target *ir.Value
	f.Values(func(v *ir.Value) {
		if target == nil && v.Op.HasResult() {
			target = v
		}
	})
	err = compare("liar", f, liar{Result: res, v: target, b: f.Blocks[0]}, dataflow.Analyze(f))
	var m *Mismatch
	if !errors.As(err, &m) {
		t.Fatalf("compare accepted a lying backend: %v", err)
	}
	if m.Backend != "liar" || !strings.Contains(m.Error(), "ground truth") {
		t.Fatalf("unhelpful mismatch: %v", m)
	}
}

// Per-block live-set sizes — register pressure — must agree with the
// ground truth for every set-producing backend, and the oracle-driven
// pressure walk must report identical profiles through every backend.
func TestPressureAgreesAcrossBackends(t *testing.T) {
	n := 48
	if testing.Short() {
		n = 12
	}
	for _, f := range Corpus(n, 20260802) {
		if err := ValidatePressure(f); err != nil {
			t.Fatal(err)
		}
	}
}

// The corpus must actually contain the pressure-biased functions the
// regalloc subsystem relies on: some functions must be markedly denser
// than the sparse calibrated default.
func TestCorpusIncludesHighPressureFunctions(t *testing.T) {
	funcs := Corpus(64, 20260730)
	maxP := 0
	for _, f := range funcs {
		p := regalloc.MeasurePressure(f, dataflow.Analyze(f))
		if p.Max > maxP {
			maxP = p.Max
		}
	}
	if maxP < 12 {
		t.Fatalf("densest corpus function has max pressure %d, want >= 12 (pressure bias missing?)", maxP)
	}
}
