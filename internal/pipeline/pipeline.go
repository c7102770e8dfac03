// Package pipeline is a small pass driver: it chains the repository's
// compiler passes — SSA construction, critical-edge splitting, SSA
// destruction, register allocation — over one fastliveness.Engine, with
// per-pass edit-epoch and rebuild accounting.
//
// The driver exists to make the paper's §4 robustness property *visible
// end to end*: every pass edits the IR through the epoch-tracked mutation
// API (ir.Func.CFGEpoch/InstrEpoch), every liveness query goes through an
// engine oracle that rebuilds exactly when those epochs say its analysis
// is stale, and the per-pass report shows which edits each pass made and
// what re-analyses they forced. With the checker backend the whole
// instruction-editing tail of the pipeline (destruction's copy insertion
// and φ elimination, the allocator's spill loop) runs on the single
// analysis taken after edge splitting — zero rebuilds; with a
// set-producing backend each edit-then-query pays one. cmd/benchtables
// -table pipeline and cmd/livecheck -pipeline render the comparison.
//
// Rebuild policy is thereby a parameter (the backend's invalidation
// class), not a property hard-wired at call sites — the framing of
// Tavares et al.'s parameterized sparse-analysis design, applied to the
// paper's invalidation taxonomy.
package pipeline

import (
	"errors"
	"fmt"
	"time"

	"fastliveness"
	"fastliveness/internal/destruct"
	"fastliveness/internal/ir"
	"fastliveness/internal/loops"
	"fastliveness/internal/regalloc"
	"fastliveness/internal/ssa"
)

// DefaultRegs is the register budget when Config.Regs is zero.
const DefaultRegs = 8

// Config tunes a pipeline run. The zero value drives the default pass
// chain with the paper's checker and DefaultRegs registers.
type Config struct {
	// Backend names the liveness engine serving every oracle query
	// (fastliveness.Config.Backend); empty means the checker.
	Backend string
	// Regs is the base register budget for the regalloc pass; the pass
	// doubles it per function until allocation succeeds (recorded in the
	// report so identical workloads stay comparable). 0 means DefaultRegs.
	Regs int
	// Verify checks the function after every pass: ir.Verify always,
	// plus ssa.VerifyStrict while the program is in pure SSA form (slot
	// phases — the raw input and everything after destruction — get the
	// structural check only, since strict-SSA verification rejects slot
	// ops by design).
	Verify bool
}

// Context is the state a Pass runs against: one function, the shared
// engine, and the run configuration. Oracle hands out auto-refreshing,
// query-counted liveness oracles.
type Context struct {
	Engine *fastliveness.Engine
	F      *ir.Func
	Config Config

	queries int
	// perFunc collects pass-specific counters for the current function;
	// committed to the report only when the function completes the whole
	// chain.
	perFunc *funcTotals
}

type funcTotals struct {
	phis, copies, spills, maxK int
}

// countingOracle wraps the engine's auto-refreshing oracle and counts
// queries into the pass accounting. It satisfies both destruct.Oracle and
// regalloc.Oracle.
type countingOracle struct {
	o *fastliveness.Oracle
	c *Context
}

func (co countingOracle) IsLiveIn(v *ir.Value, b *ir.Block) bool {
	co.c.queries++
	return co.o.IsLiveIn(v, b)
}

func (co countingOracle) IsLiveOut(v *ir.Value, b *ir.Block) bool {
	co.c.queries++
	return co.o.IsLiveOut(v, b)
}

// Oracle returns an auto-refreshing oracle for the context's function,
// analyzing it with the configured backend on first use. The error is
// typically loops.ErrIrreducible when the loops backend meets irreducible
// control flow; Run skips such functions.
func (c *Context) Oracle() (countingOracle, error) {
	o, err := c.Engine.Oracle(c.F)
	if err != nil {
		return countingOracle{}, err
	}
	return countingOracle{o: o, c: c}, nil
}

// Pass is one transformation step of the chain.
type Pass struct {
	// Name labels the pass in reports ("construct", "split-edges", ...).
	Name string
	// Run transforms ctx.F in place, querying liveness through
	// ctx.Oracle if needed.
	Run func(ctx *Context) error
}

// DefaultPasses is the canonical chain: construct SSA from slot form (a
// no-op on programs already in SSA), split critical edges (the one CFG
// edit, done before any analysis), destroy SSA (Sreedhar-III coalescing —
// the Table 2 query workload), then allocate registers (the spill-loop
// workload). Custom chains may be passed to RunPasses.
func DefaultPasses() []Pass {
	return []Pass{
		{Name: "construct", Run: func(c *Context) error {
			if c.F.NumSlots > 0 {
				ssa.Construct(c.F)
			}
			return nil
		}},
		{Name: "split-edges", Run: func(c *Context) error {
			destruct.Prepare(c.F)
			return nil
		}},
		{Name: "destruct", Run: func(c *Context) error {
			oracle, err := c.Oracle()
			if err != nil {
				return err
			}
			st := destruct.Run(c.F, oracle, destruct.ModeCoalesce)
			c.perFunc.phis += st.Phis
			c.perFunc.copies += st.Copies
			return nil
		}},
		{Name: "regalloc", Run: func(c *Context) error {
			oracle, err := c.Oracle()
			if err != nil {
				return err
			}
			k := c.Config.Regs
			if k <= 0 {
				k = DefaultRegs
			}
			for {
				alloc, err := regalloc.Run(c.F, oracle, k)
				if errors.Is(err, regalloc.ErrTooFewRegisters) {
					// The budget cannot fit this function's unspillable
					// values; widen and retry on the (already spill-edited,
					// still semantically equivalent) function. The failed
					// attempt's spill edits remain in the program, so its
					// partial stats count toward the report.
					if alloc != nil {
						c.perFunc.spills += alloc.Stats.Spills
					}
					k *= 2
					continue
				}
				if err != nil {
					return err
				}
				c.perFunc.spills += alloc.Stats.Spills
				if k > c.perFunc.maxK {
					c.perFunc.maxK = k
				}
				return nil
			}
		}},
	}
}

// PassStats aggregates one pass's work across every completed function.
type PassStats struct {
	Pass string `json:"pass"`
	// CFGEdits and InstrEdits are the function epoch deltas the pass
	// caused (summed): which edit class the pass belongs to, measured
	// rather than asserted.
	CFGEdits   uint64 `json:"cfg_edits"`
	InstrEdits uint64 `json:"instr_edits"`
	// Rebuilds counts engine re-analyses forced by stale epochs during
	// the pass.
	Rebuilds int `json:"rebuilds"`
	// Queries counts oracle liveness queries the pass issued.
	Queries int `json:"queries"`
	// Ns is wall time spent in the pass.
	Ns int64 `json:"ns"`
}

// Report is the outcome of a pipeline run.
type Report struct {
	// Backend is the engine configuration the run used ("checker" for
	// the empty name).
	Backend string `json:"backend"`
	// Funcs counts functions that completed the whole chain; Skipped
	// those aborted because the configured backend cannot analyze them
	// (the loops engine on irreducible control flow). Skipped functions
	// contribute to no other counter.
	Funcs   int `json:"funcs"`
	Skipped int `json:"skipped"`
	// Regs is the base register budget; MaxRegs the widest budget the
	// doubling retry needed.
	Regs    int `json:"regs"`
	MaxRegs int `json:"max_regs"`
	// Phis/Copies/Spills summarize what the editing passes did.
	Phis   int `json:"phis"`
	Copies int `json:"copies"`
	Spills int `json:"spills"`
	// Rebuilds is the engine's total count of staleness-forced
	// re-analyses — the pipeline's headline number: 0 for the checker,
	// one per edit-then-query for set-producing backends.
	Rebuilds int `json:"rebuilds"`
	// Queries sums oracle queries across passes.
	Queries int         `json:"queries"`
	Passes  []PassStats `json:"passes"`
}

// Run drives every function through the default pass chain with a fresh
// engine. Functions the configured backend cannot analyze (irreducible
// CFGs under "loops") are skipped and counted; any other pass failure
// aborts the run.
func Run(funcs []*ir.Func, cfg Config) (*Report, error) {
	return RunPasses(funcs, DefaultPasses(), cfg)
}

// RunPasses is Run with an explicit pass chain.
func RunPasses(funcs []*ir.Func, passes []Pass, cfg Config) (*Report, error) {
	eng := fastliveness.NewEngine(fastliveness.EngineConfig{
		Config: fastliveness.Config{Backend: cfg.Backend},
	})
	defer eng.Close()
	eng.Add(funcs...)

	name := cfg.Backend
	if name == "" {
		name = "checker"
	}
	regs := cfg.Regs
	if regs <= 0 {
		regs = DefaultRegs
	}
	report := &Report{Backend: name, Regs: regs, Passes: make([]PassStats, len(passes))}
	for i, p := range passes {
		report.Passes[i].Pass = p.Name
	}

	perPass := make([]PassStats, len(passes))
	for _, f := range funcs {
		for i := range perPass {
			perPass[i] = PassStats{}
		}
		totals := funcTotals{}
		skipped := false
		for i, p := range passes {
			ctx := &Context{Engine: eng, F: f, Config: cfg, perFunc: &totals}
			cfgBefore, instrBefore := f.CFGEpoch(), f.InstrEpoch()
			rebuildsBefore := eng.Rebuilds()
			start := time.Now()
			err := p.Run(ctx)
			if err != nil {
				if errors.Is(err, loops.ErrIrreducible) {
					skipped = true
					break
				}
				return nil, fmt.Errorf("pipeline: pass %s on %s: %w", p.Name, f.Name, err)
			}
			if cfg.Verify {
				verr := ir.Verify(f)
				if verr == nil && f.NumSlots == 0 {
					verr = ssa.VerifyStrict(f)
				}
				if verr != nil {
					return nil, fmt.Errorf("pipeline: pass %s broke %s: %w", p.Name, f.Name, verr)
				}
			}
			perPass[i].CFGEdits = f.CFGEpoch() - cfgBefore
			perPass[i].InstrEdits = f.InstrEpoch() - instrBefore
			perPass[i].Rebuilds = eng.Rebuilds() - rebuildsBefore
			perPass[i].Queries = ctx.queries
			perPass[i].Ns = time.Since(start).Nanoseconds()
		}
		if skipped {
			report.Skipped++
			continue
		}
		report.Funcs++
		report.Phis += totals.phis
		report.Copies += totals.copies
		report.Spills += totals.spills
		if totals.maxK > report.MaxRegs {
			report.MaxRegs = totals.maxK
		}
		for i := range passes {
			report.Passes[i].CFGEdits += perPass[i].CFGEdits
			report.Passes[i].InstrEdits += perPass[i].InstrEdits
			report.Passes[i].Rebuilds += perPass[i].Rebuilds
			report.Passes[i].Queries += perPass[i].Queries
			report.Passes[i].Ns += perPass[i].Ns
			report.Rebuilds += perPass[i].Rebuilds
			report.Queries += perPass[i].Queries
		}
	}
	return report, nil
}
