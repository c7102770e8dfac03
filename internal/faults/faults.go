// Package faults is a deterministic fault injector: code under test (or
// under chaos) declares named sites — "snapshot.load", "backend.analyze" —
// and an Injector decides, per call, whether to inject an error, a panic
// or a delay there. Sites are plain strings, so the seam costs one
// nil-receiver method call when no injector is wired in; rules are
// evaluated under a seeded RNG, so a single-goroutine battery replays the
// exact same fault schedule for a given seed.
//
// The injector exists for the repository's chaos harness: the snapshot
// store's filesystem seam and the fault-injecting backend wrapper
// (internal/backend.Faulty) call Fire at their I/O and analysis
// boundaries, and the chaos tests assert that every injected failure
// degrades to recomputation or a reported error — never a wrong answer.
package faults

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// Action is what a matching rule does to the call that triggered it.
type Action uint8

const (
	// ActionError makes Fire return an error (Rule.Err, or a generic
	// *InjectedError), which the site propagates like a real failure.
	ActionError Action = iota
	// ActionPanic makes Fire panic with an *InjectedPanic — the chaos
	// stand-in for a backend bug, exercised by the engine's recover
	// boundary.
	ActionPanic
	// ActionDelay makes Fire sleep for Rule.Delay and then keep evaluating
	// further rules — the slow-disk / slow-build fault, used to trip
	// latency ceilings rather than error paths.
	ActionDelay
)

// String names the action for test output.
func (a Action) String() string {
	switch a {
	case ActionError:
		return "error"
	case ActionPanic:
		return "panic"
	case ActionDelay:
		return "delay"
	}
	return fmt.Sprintf("action(%d)", uint8(a))
}

// Rule arms one fault at one site. The zero probability means "always
// fire when eligible"; After and Times window the rule to a slice of the
// site's call sequence, which is how tests script "the first save fails,
// the next one succeeds" deterministically.
type Rule struct {
	// Site is the exact site name the rule matches.
	Site string
	// Action selects error, panic or delay.
	Action Action
	// Err is returned by ActionError; nil substitutes *InjectedError.
	Err error
	// Delay is how long ActionDelay sleeps.
	Delay time.Duration
	// P is the per-call firing probability in (0,1); outside that range
	// the rule fires on every eligible call.
	P float64
	// After skips the rule for the site's first After calls.
	After int
	// Times caps how often the rule fires; 0 means no cap.
	Times int
}

// InjectedError is the error ActionError injects when Rule.Err is nil.
type InjectedError struct{ Site string }

func (e *InjectedError) Error() string { return "faults: injected error at " + e.Site }

// InjectedPanic is the value ActionPanic panics with.
type InjectedPanic struct{ Site string }

func (p *InjectedPanic) String() string { return "faults: injected panic at " + p.Site }

// ruleState pairs a rule with its per-injector firing count.
type ruleState struct {
	Rule
	fired int
}

// Injector evaluates rules at fault sites. The zero of *Injector — nil —
// is a valid, permanently disabled injector: Fire on a nil receiver returns nil
// immediately, so production call sites carry no conditional wiring.
// All methods are safe for concurrent use; under concurrency the seeded
// RNG still makes each individual decision deterministically, but the
// interleaving of decisions across goroutines follows the schedule of the
// run.
type Injector struct {
	mu    sync.Mutex
	rng   *rand.Rand
	rules []*ruleState
	calls map[string]int
	fired map[string]int
	sleep func(time.Duration) // swappable for tests; time.Sleep by default
}

// New returns an empty injector whose probabilistic rules draw from a RNG
// seeded with seed.
func New(seed int64) *Injector {
	return &Injector{
		rng:   rand.New(rand.NewSource(seed)),
		calls: make(map[string]int),
		fired: make(map[string]int),
		sleep: time.Sleep,
	}
}

// Add arms rules. Rules at the same site are evaluated in Add order;
// delays fall through to later rules, errors and panics stop evaluation.
func (in *Injector) Add(rules ...Rule) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, r := range rules {
		r := r
		in.rules = append(in.rules, &ruleState{Rule: r})
	}
}

// Fire evaluates the rules armed for site against this call. It returns
// the injected error (ActionError), panics (ActionPanic), or sleeps and
// continues (ActionDelay); with no matching rule — or a nil injector — it
// returns nil. The call is counted either way, so Calls reports the
// site's real traffic.
func (in *Injector) Fire(site string) error {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	n := in.calls[site]
	in.calls[site] = n + 1
	var sleeps []time.Duration
	var injected error
	for _, rs := range in.rules {
		if rs.Site != site || n < rs.After {
			continue
		}
		if rs.Times > 0 && rs.fired >= rs.Times {
			continue
		}
		if rs.P > 0 && rs.P < 1 && in.rng.Float64() >= rs.P {
			continue
		}
		rs.fired++
		in.fired[site]++
		switch rs.Action {
		case ActionDelay:
			sleeps = append(sleeps, rs.Delay)
			continue // delays compose with a subsequent error/panic
		case ActionPanic:
			in.mu.Unlock()
			for _, d := range sleeps {
				in.sleep(d)
			}
			panic(&InjectedPanic{Site: site})
		default: // ActionError
			injected = rs.Err
			if injected == nil {
				injected = &InjectedError{Site: site}
			}
		}
		break
	}
	in.mu.Unlock()
	for _, d := range sleeps {
		in.sleep(d)
	}
	return injected
}

// Calls reports how many times Fire has been called for site — the
// "how much disk traffic happened" counter the dead-disk tests assert on.
func (in *Injector) Calls(site string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.calls[site]
}

// Fired reports how many rule firings site has suffered.
func (in *Injector) Fired(site string) int {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fired[site]
}
