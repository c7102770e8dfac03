// Package retry holds the failure-model primitives the engine and the
// snapshot tier share: a decorrelated-jitter backoff (the retry pacing of
// quarantined builds and transient snapshot saves) and a consecutive-
// failure circuit breaker (the degradation switch in front of the
// snapshot disk tier).
//
// Both are deliberately tiny and dependency-free; policy — what counts as
// a failure, what to do when the breaker is open — stays with the caller.
package retry

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"
)

// autoseed distinguishes Backoffs constructed with seed 0 so independent
// handles do not march in lockstep.
var autoseed atomic.Int64

// Backoff produces decorrelated-jitter delays (the AWS architecture-blog
// scheme): each delay is drawn uniformly from [base, 3*prev], capped, so
// consecutive retries spread apart quickly but never collapse onto a
// shared schedule the way plain exponential backoff does under fan-out.
// Safe for concurrent use.
type Backoff struct {
	base, cap time.Duration

	mu   sync.Mutex
	rng  *rand.Rand
	prev time.Duration
}

// NewBackoff returns a backoff stepping from base up to cap. A zero seed
// self-seeds from a process-global counter; any other seed gives a
// reproducible delay sequence.
func NewBackoff(base, cap time.Duration, seed int64) *Backoff {
	if base <= 0 {
		base = time.Millisecond
	}
	if cap < base {
		cap = base
	}
	if seed == 0 {
		seed = autoseed.Add(1)
	}
	return &Backoff{base: base, cap: cap, rng: rand.New(rand.NewSource(seed))}
}

// Next returns the next delay: min(cap, uniform(base, 3*prev)), starting
// from base.
func (b *Backoff) Next() time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	hi := 3 * b.prev
	if hi < b.base {
		hi = b.base
	}
	d := b.base
	if hi > b.base {
		d = b.base + time.Duration(b.rng.Int63n(int64(hi-b.base)+1))
	}
	if d > b.cap {
		d = b.cap
	}
	b.prev = d
	return d
}

// Reset forgets the previous delay, so the next Next starts from base
// again — called when the guarded operation succeeds.
func (b *Backoff) Reset() {
	b.mu.Lock()
	b.prev = 0
	b.mu.Unlock()
}

// State is a circuit breaker's position.
type State uint8

const (
	// Closed passes traffic through; failures are being counted.
	Closed State = iota
	// Open short-circuits traffic; Allow returns false until the cooldown
	// elapses.
	Open
	// HalfOpen admits exactly one probe; its Record decides between
	// Closed (success) and Open again (failure).
	HalfOpen
)

// String names the state for stats and logs.
func (s State) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "state(?)"
}

// BreakerConfig tunes a Breaker. The zero value opens after
// 4 consecutive failures and cools down for one second before probing.
type BreakerConfig struct {
	// Failures is how many consecutive failures open the breaker.
	// 0 means 4.
	Failures int
	// Cooldown is how long an open breaker waits before admitting a
	// half-open probe. 0 means one second.
	Cooldown time.Duration
	// Now is the clock; nil means time.Now. Injectable for deterministic
	// tests.
	Now func() time.Time
	// OnTransition, when non-nil, is called after every state change with
	// the old and new state. It runs outside the breaker's lock (so it may
	// call back into the breaker) but synchronously on the goroutine whose
	// Allow or Record caused the transition — keep it fast. Transitions
	// are reported in order per goroutine; concurrent transitions may
	// interleave their callbacks.
	OnTransition func(from, to State)
}

func (c BreakerConfig) failures() int {
	if c.Failures > 0 {
		return c.Failures
	}
	return 4
}

func (c BreakerConfig) cooldown() time.Duration {
	if c.Cooldown > 0 {
		return c.Cooldown
	}
	return time.Second
}

func (c BreakerConfig) now() time.Time {
	if c.Now != nil {
		return c.Now()
	}
	return time.Now()
}

// Breaker is a consecutive-failure circuit breaker. Callers bracket the guarded operation with Allow (may I run?)
// and Record (how did it go?); when Allow returns false the caller takes
// its degraded path — for the snapshot tier, "skip the disk, recompute
// from IR". Safe for concurrent use.
//
// Record calls that race a state transition (an operation admitted while
// Closed reporting after the breaker opened, or alongside a half-open
// probe) are folded into the current state's accounting rather than
// tracked per-admission; the breaker is a health summary, not a ledger.
type Breaker struct {
	cfg BreakerConfig

	mu          sync.Mutex
	state       State
	consecutive int       // failures since the last success (Closed)
	openedAt    time.Time // when the breaker last opened
	probing     bool      // a half-open probe is in flight
}

// NewBreaker returns a closed breaker.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg}
}

// Allow reports whether the caller may run the guarded operation now.
// Open breakers admit nothing until the cooldown elapses, then exactly
// one probe at a time (half-open); every admitted call should be followed
// by Record.
func (b *Breaker) Allow() bool {
	b.mu.Lock()
	var ok bool
	from, to := b.state, b.state
	switch b.state {
	case Closed:
		ok = true
	case Open:
		if b.cfg.now().Sub(b.openedAt) >= b.cfg.cooldown() {
			b.state = HalfOpen
			b.probing = true
			to = HalfOpen
			ok = true
		}
	default: // HalfOpen
		if !b.probing {
			b.probing = true
			ok = true
		}
	}
	b.mu.Unlock()
	b.notify(from, to)
	return ok
}

// notify fires the transition callback outside the lock when the state
// actually changed.
func (b *Breaker) notify(from, to State) {
	if from != to && b.cfg.OnTransition != nil {
		b.cfg.OnTransition(from, to)
	}
}

// Record reports an admitted operation's outcome: failed says whether it
// errored. In Closed state a run of consecutive failures opens the
// breaker; in HalfOpen the probe's outcome closes or re-opens it.
func (b *Breaker) Record(failed bool) {
	b.mu.Lock()
	from, to := b.state, b.state
	switch b.state {
	case Closed:
		if !failed {
			b.consecutive = 0
		} else {
			b.consecutive++
			if b.consecutive >= b.cfg.failures() {
				b.state = Open
				b.openedAt = b.cfg.now()
				to = Open
			}
		}
	case Open:
		// A straggler admitted before the breaker opened; its outcome
		// carries no new information.
	default: // HalfOpen: the probe's verdict
		b.probing = false
		if failed {
			b.state = Open
			b.openedAt = b.cfg.now()
			to = Open
		} else {
			b.state = Closed
			b.consecutive = 0
			to = Closed
		}
	}
	b.mu.Unlock()
	b.notify(from, to)
}

// State reports the breaker's current position without side effects; an
// Open breaker past its cooldown still reads Open until an Allow promotes
// it to HalfOpen.
func (b *Breaker) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}
