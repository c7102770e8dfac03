package main

import (
	"fmt"
	"strings"

	"fastliveness/internal/bench"
	"fastliveness/internal/destruct"
	"fastliveness/internal/gen"
	"fastliveness/internal/ir"
	"fastliveness/internal/ssa"
)

// reseedMaxBlocks is the largest calibrated block target whose generator
// seed is drawn from --seed. Larger procedures keep their calibrated seed:
// the few giants set the corpus's total cost and tail, so redrawing them
// would make the seed, not the code, decide those metrics. Everything at
// or below it — most procedures, and all that set the medians — is new on
// every seed.
const reseedMaxBlocks = 16

// specProc generates the i-th procedure of spec in slot form.
func specProc(spec *gen.Spec, i int, seed int64) *ir.Func {
	c := spec.ProcConfig(i)
	if c.TargetBlocks <= reseedMaxBlocks {
		c.Seed = mix(seed, c.Seed)
	}
	name := strings.ReplaceAll(spec.Name, ".", "_") + "_p" + fmt.Sprint(i)
	return gen.Generate(name, c)
}

// specProtos generates up to perBench procedures of every SPEC2000
// benchmark in slot form (perBench <= 0 means all of them).
func specProtos(seed int64, perBench int) []*ir.Func {
	var out []*ir.Func
	for i := range gen.SPEC2000 {
		spec := &gen.SPEC2000[i]
		n := spec.Procs
		if perBench > 0 && perBench < n {
			n = perBench
		}
		for j := 0; j < n; j++ {
			out = append(out, specProc(spec, j, seed))
		}
	}
	return out
}

// stream is one function's recorded SSA-destruction query stream.
type stream struct {
	f  *ir.Func
	qs []bench.Query
}

// serveCorpus builds the serve workload's functions — strict SSA with
// critical edges split, the state destruction queries — and records each
// one's destruction query stream against a data-flow oracle.
func serveCorpus(seed int64, perBench int) []stream {
	protos := specProtos(seed, perBench)
	out := make([]stream, 0, len(protos))
	for _, f := range protos {
		ssa.Construct(f)
		destruct.Prepare(f)
		if qs := bench.RecordQueries(bench.Proc{F: f}); len(qs) > 0 {
			out = append(out, stream{f: f, qs: qs})
		}
	}
	return out
}

// restartTargets are the block targets of the restart corpus, cycled: the
// large procedures that dominate a program's analysis time.
var restartTargets = []int{8192, 2048, 4096, 1024, 6144, 3072, 512, 7168}

// restartFixedBlocks is the smallest restart block target whose function
// keeps a fixed generator seed.
const restartFixedBlocks = 4096

// restartFuncs generates n deep, loopy functions in SSA form, every third
// one irreducible. Functions with a block target of at least
// restartFixedBlocks keep a fixed generator seed and the rest draw theirs
// from seed, for the reason reseedMaxBlocks gives: the largest functions
// carry nearly all of the quadratic precompute. tiny caps their size for
// the smoke test.
func restartFuncs(seed int64, n int, tiny bool) []*ir.Func {
	funcs := make([]*ir.Func, n)
	for i := range funcs {
		target := restartTargets[i%len(restartTargets)]
		c := gen.Default(7001 + int64(i)*6151)
		if target < restartFixedBlocks {
			c.Seed = mix(seed, int64(i))
		}
		c.TargetBlocks = target
		if tiny {
			c.TargetBlocks /= 32
		}
		c.MaxDepth = 9
		c.Irreducible = i%3 == 0
		f := gen.Generate(fmt.Sprintf("w%04d", i), c)
		ssa.Construct(f)
		funcs[i] = f
	}
	return funcs
}

// benignEdit inserts and removes a copy of v: the program is unchanged,
// but its instruction epoch advances as under a real rewrite.
func benignEdit(v *ir.Value) {
	tmp := v.Block.NewValue(ir.OpCopy, v)
	v.Block.RemoveValue(tmp)
}

// cfgEdit splits the edge b -> b.Succs[si] and then removes the new block
// again, rewiring the original edge: the CFG's shape is unchanged but its
// epoch advances, so the checker's precomputation must be rebuilt — a CFG
// edit the workload can repeat without the functions growing.
func cfgEdit(b *ir.Block, si int) {
	e := b.SplitEdge(si)
	c, pi := e.Succs[0].B, e.Succs[0].I
	b.Succs[si] = ir.Edge{B: c, I: pi}
	c.Preds[pi] = ir.Edge{B: b, I: si}
	e.Preds, e.Succs = nil, nil
	b.Func.RemoveBlock(e)
}
