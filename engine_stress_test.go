package fastliveness

// The concurrency battery for the engine: K goroutines mutate
// functions through Engine.Edit while M goroutines issue batch and Oracle
// queries, and every answer is validated against a fresh dataflow
// recompute of the function pinned by a per-function RWMutex. The
// mutation op set mirrors internal/ir's FuzzMutations sequences (new use,
// φ-safe const insert, edge split, dead-value removal), so every
// intermediate program stays verifiable strict SSA. Run in CI under
// -race: the point is as much the absence of data races in the engine's
// index/rebuild machinery as the correctness of the answers.

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"fastliveness/internal/ir"
	"fastliveness/internal/ssa"
)

// mutateFunc applies one random epoch-tracked mutation to f, mirroring
// the FuzzMutations op set. Mutations only add uses, constants and edges
// or remove use-free non-param values, so pointers into the pre-mutation
// value/block set stay valid and strict SSA is preserved.
func mutateFunc(f *ir.Func, rng *rand.Rand) {
	switch rng.Intn(4) {
	case 0: // new use of an existing value in its own block
		var vals []*ir.Value
		f.Values(func(v *ir.Value) {
			if v.Op.HasResult() {
				vals = append(vals, v)
			}
		})
		if len(vals) > 0 {
			v := vals[rng.Intn(len(vals))]
			v.Block.NewValue(ir.OpNeg, v)
		}
	case 1: // constant right after a block's φ prefix
		b := f.Blocks[rng.Intn(len(f.Blocks))]
		b.InsertValueAt(len(b.Phis()), ir.OpConst, int64(rng.Intn(1000)))
	case 2: // split a random CFG edge (stales every backend)
		var cands []*ir.Block
		for _, b := range f.Blocks {
			if len(b.Succs) > 0 {
				cands = append(cands, b)
			}
		}
		if len(cands) > 0 {
			b := cands[rng.Intn(len(cands))]
			b.SplitEdge(rng.Intn(len(b.Succs)))
		}
	case 3: // remove a use-free non-param value, if any
		for _, b := range f.Blocks {
			for idx, v := range b.Values {
				if v.NumUses() == 0 && v.Op != ir.OpParam {
					b.RemoveValueAt(idx)
					return
				}
			}
		}
	}
}

// TestEngineConcurrentEditQueryStress is the edit+query hammer: mutators
// own a function for the duration of an Edit (write side of the
// per-function test lock), queriers pin it shared (read side), issue
// BatchIsLiveIn/Out and Oracle queries through the engine, and compare
// every answer against a fresh dataflow recompute. The engine runs with
// a bounded cache, so eviction and staleness rebuild races
// are both in play.
func TestEngineConcurrentEditQueryStress(t *testing.T) {
	const nFuncs = 12
	iters := 48
	if testing.Short() {
		iters = 12
	}
	funcs := engineCorpus(t, nFuncs, 1234)
	e := NewEngine(EngineConfig{
		Parallelism: 2,
		MaxCached:   nFuncs - 2, // keep eviction in play
	})
	defer e.Close()
	e.Add(funcs...)
	if err := e.Precompute(); err != nil {
		t.Fatal(err)
	}

	locks := make([]sync.RWMutex, nFuncs)
	const mutators, queriers = 3, 5
	errs := make(chan error, mutators+queriers)

	var wg sync.WaitGroup
	for m := 0; m < mutators; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + m)))
			for i := 0; i < iters; i++ {
				idx := rng.Intn(nFuncs)
				f := funcs[idx]
				locks[idx].Lock()
				e.Edit(f, func() { mutateFunc(f, rng) })
				// The harness itself must keep the program well-formed;
				// verify inside the exclusive section.
				if err := ir.Verify(f); err == nil {
					err = ssa.VerifyStrict(f)
					if err != nil {
						locks[idx].Unlock()
						errs <- fmt.Errorf("mutator %d broke %s: %v", m, f.Name, err)
						return
					}
				} else {
					locks[idx].Unlock()
					errs <- fmt.Errorf("mutator %d broke %s: %v", m, f.Name, err)
					return
				}
				locks[idx].Unlock()
			}
			errs <- nil
		}(m)
	}

	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + q)))
			for i := 0; i < iters; i++ {
				idx := rng.Intn(nFuncs)
				f := funcs[idx]
				locks[idx].RLock()
				if err := checkOneFunc(e, f, rng); err != nil {
					locks[idx].RUnlock()
					errs <- fmt.Errorf("querier %d: %v", q, err)
					return
				}
				locks[idx].RUnlock()
			}
			errs <- nil
		}(q)
	}

	wg.Wait()
	for i := 0; i < mutators+queriers; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// checkOneFunc issues a batch live-in, a batch live-out and a handful of
// Oracle queries against f through the engine and validates every answer
// against a fresh dataflow analysis of f's current state. Called with f
// pinned (no concurrent mutation), but the engine underneath is fully
// concurrent — other functions are being edited, rebuilt and evicted
// while this runs.
func checkOneFunc(e *Engine, f *ir.Func, rng *rand.Rand) error {
	ref, err := Analyze(f, Config{Backend: "dataflow"})
	if err != nil {
		return fmt.Errorf("fresh recompute of %s: %w", f.Name, err)
	}
	qs := allQueries(f)
	if len(qs) > 240 {
		off := rng.Intn(len(qs) - 240)
		qs = qs[off : off+240]
	}
	ins, err := e.BatchIsLiveIn(f, qs)
	if err != nil {
		return err
	}
	outs, err := e.BatchIsLiveOut(f, qs)
	if err != nil {
		return err
	}
	for i, q := range qs {
		if want := ref.IsLiveIn(q.V, q.B); ins[i] != want {
			return fmt.Errorf("%s: batch live-in(%s,%s)=%v, fresh recompute=%v", f.Name, q.V, q.B, ins[i], want)
		}
		if want := ref.IsLiveOut(q.V, q.B); outs[i] != want {
			return fmt.Errorf("%s: batch live-out(%s,%s)=%v, fresh recompute=%v", f.Name, q.V, q.B, outs[i], want)
		}
	}
	oracle, err := e.Oracle(f)
	if err != nil {
		return err
	}
	for i := 0; i < 8 && i < len(qs); i++ {
		q := qs[rng.Intn(len(qs))]
		if got, want := oracle.IsLiveIn(q.V, q.B), ref.IsLiveIn(q.V, q.B); got != want {
			return fmt.Errorf("%s: oracle live-in(%s,%s)=%v, fresh recompute=%v", f.Name, q.V, q.B, got, want)
		}
		if got, want := oracle.IsLiveOut(q.V, q.B), ref.IsLiveOut(q.V, q.B); got != want {
			return fmt.Errorf("%s: oracle live-out(%s,%s)=%v, fresh recompute=%v", f.Name, q.V, q.B, got, want)
		}
	}
	return nil
}
