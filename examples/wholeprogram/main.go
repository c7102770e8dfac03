// Whole-program liveness: analyze a generated multi-function module with
// the concurrent engine, then serve batched and concurrent queries from
// the shared precomputation.
//
// The per-function checker precomputes R/T sets for one CFG; a compiler
// or JIT has thousands of CFGs, and their precomputations are independent.
// This example builds a 64-function program, precomputes it across a
// worker pool, and shows the three ways to query the result: a cached
// per-function handle, a batched query slice, and goroutines sharing one
// handle.
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	"fastliveness"
	"fastliveness/internal/gen"
	"fastliveness/internal/ir"
	"fastliveness/internal/ssa"
)

func buildProgram(n int) []*ir.Func {
	funcs := make([]*ir.Func, n)
	for i := range funcs {
		c := gen.Default(int64(i)*271 + 9)
		c.TargetBlocks = 20 + (i*13)%50
		f := gen.Generate(fmt.Sprintf("fn%02d", i), c)
		ssa.Construct(f) // generated programs are slot-form; make them SSA
		funcs[i] = f
	}
	return funcs
}

func main() {
	funcs := buildProgram(64)
	blocks := 0
	for _, f := range funcs {
		blocks += len(f.Blocks)
	}
	fmt.Printf("program: %d functions, %d blocks, GOMAXPROCS=%d\n\n",
		len(funcs), blocks, runtime.GOMAXPROCS(0))

	// Precompute every function across a bounded worker pool. The result
	// is deterministic: parallelism only reorders the work, never the
	// answers.
	for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
		start := time.Now()
		if _, err := fastliveness.AnalyzeProgram(funcs, fastliveness.EngineConfig{
			Parallelism: workers,
		}); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("precompute with %d worker(s): %v\n", workers, time.Since(start))
	}

	engine, err := fastliveness.AnalyzeProgram(funcs, fastliveness.EngineConfig{
		MaxCached: 16, // keep at most 16 analyses resident; evicted ones rebuild on demand
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncache: %d of %d analyses resident, %d bytes of precomputed sets\n",
		engine.Resident(), len(funcs), engine.MemoryBytes())

	// Batched queries: every (variable, block) pair of one function in a
	// single call, answered positionally.
	f := funcs[7]
	var queries []fastliveness.Query
	f.Values(func(v *ir.Value) {
		if !v.Op.HasResult() {
			return
		}
		for _, b := range f.Blocks {
			queries = append(queries, fastliveness.Query{V: v, B: b})
		}
	})
	liveIn, err := engine.BatchIsLiveIn(f, queries)
	if err != nil {
		log.Fatal(err)
	}
	hot := 0
	for _, ok := range liveIn {
		if ok {
			hot++
		}
	}
	fmt.Printf("\n%s: %d of %d (var, block) pairs are live-in\n", f.Name, hot, len(queries))

	// Goroutines share one Liveness for concurrent serving: a query writes
	// nothing, and the engine's batch methods do the same internally.
	live, err := engine.Liveness(f)
	if err != nil {
		log.Fatal(err)
	}
	done := make(chan int, 4)
	for w := 0; w < 4; w++ {
		go func(w int) {
			n := 0
			for i := w; i < len(queries); i += 4 {
				if live.IsLiveIn(queries[i].V, queries[i].B) {
					n++
				}
			}
			done <- n
		}(w)
	}
	sum := 0
	for w := 0; w < 4; w++ {
		sum += <-done
	}
	fmt.Printf("4 goroutines sharing one handle agree: %d live-in answers\n", sum)

	// A CFG edit invalidates exactly one function's analysis — and the
	// engine notices on its own: the edit bumps the function's CFGEpoch,
	// the next Liveness request sees the resident analysis is stale and
	// rebuilds it. No Invalidate call; the other 63 analyses stay warm.
	f.Blocks[0].SplitEdge(0)
	if _, err := engine.Liveness(f); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after one CFG edit: re-analyzed %s automatically (%d stale rebuild), %d analyses still resident\n",
		f.Name, engine.Rebuilds(), engine.Resident())
}
