package retry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBackoffBoundsAndGrowth(t *testing.T) {
	b := NewBackoff(2*time.Millisecond, 50*time.Millisecond, 7)
	prev := time.Duration(0)
	for i := 0; i < 32; i++ {
		d := b.Next()
		if d < 2*time.Millisecond || d > 50*time.Millisecond {
			t.Fatalf("delay %d = %v outside [2ms, 50ms]", i, d)
		}
		hi := 3 * prev
		if hi < 2*time.Millisecond {
			hi = 2 * time.Millisecond
		}
		if hi > 50*time.Millisecond {
			hi = 50 * time.Millisecond
		}
		if d > hi {
			t.Fatalf("delay %d = %v exceeds decorrelated bound %v", i, d, hi)
		}
		prev = d
	}
}

func TestBackoffSeededDeterministic(t *testing.T) {
	a := NewBackoff(time.Millisecond, 100*time.Millisecond, 13)
	b := NewBackoff(time.Millisecond, 100*time.Millisecond, 13)
	for i := 0; i < 16; i++ {
		if da, db := a.Next(), b.Next(); da != db {
			t.Fatalf("same seed diverged at step %d: %v vs %v", i, da, db)
		}
	}
}

func TestBackoffReset(t *testing.T) {
	b := NewBackoff(time.Millisecond, time.Second, 3)
	for i := 0; i < 8; i++ {
		b.Next()
	}
	b.Reset()
	if d := b.Next(); d != time.Millisecond {
		t.Fatalf("first delay after Reset = %v, want base", d)
	}
}

// fakeClock is a hand-advanced clock for deterministic breaker tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

func TestBreakerOpensAfterConsecutiveFailures(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	b := NewBreaker(BreakerConfig{Failures: 3, Cooldown: time.Second, Now: clk.Now})
	for i := 0; i < 2; i++ {
		if !b.Allow() {
			t.Fatalf("closed breaker refused call %d", i)
		}
		b.Record(true)
	}
	// A success resets the run.
	b.Allow()
	b.Record(false)
	for i := 0; i < 3; i++ {
		b.Allow()
		b.Record(true)
	}
	if b.State() != Open {
		t.Fatalf("state = %v after 3 consecutive failures, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("open breaker admitted a call inside the cooldown")
	}
}

func TestBreakerHalfOpenProbe(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	b := NewBreaker(BreakerConfig{Failures: 1, Cooldown: time.Second, Now: clk.Now})
	b.Allow()
	b.Record(true)
	if b.State() != Open {
		t.Fatal("breaker did not open")
	}
	clk.Advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("cooled-down breaker refused the probe")
	}
	if b.State() != HalfOpen {
		t.Fatalf("state = %v during probe, want half-open", b.State())
	}
	if b.Allow() {
		t.Fatal("half-open breaker admitted a second call alongside the probe")
	}
	// Probe fails: back to open, new cooldown.
	b.Record(true)
	if b.State() != Open {
		t.Fatalf("state = %v after failed probe, want open", b.State())
	}
	if b.Allow() {
		t.Fatal("re-opened breaker admitted a call before the new cooldown")
	}
	clk.Advance(2 * time.Second)
	if !b.Allow() {
		t.Fatal("second probe refused")
	}
	// Probe succeeds: closed, counting from zero again.
	b.Record(false)
	if b.State() != Closed {
		t.Fatalf("state = %v after successful probe, want closed", b.State())
	}
	if !b.Allow() {
		t.Fatal("closed breaker refused traffic")
	}
}

func TestBreakerStragglerRecordInOpenIsIgnored(t *testing.T) {
	b := NewBreaker(BreakerConfig{Failures: 1, Cooldown: time.Hour})
	b.Allow()
	b.Record(true)
	// A call admitted before the breaker opened reports now.
	b.Record(false)
	if b.State() != Open {
		t.Fatalf("state = %v, want open (straggler must not half-close it)", b.State())
	}
}

func TestBreakerConcurrentUse(t *testing.T) {
	b := NewBreaker(BreakerConfig{Failures: 5, Cooldown: time.Millisecond})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if b.Allow() {
					b.Record((i+g)%3 == 0)
				}
				_ = b.State()
			}
		}(g)
	}
	wg.Wait()
}

func TestBreakerOnTransition(t *testing.T) {
	clk := &fakeClock{now: time.Unix(0, 0)}
	var got []string
	b := NewBreaker(BreakerConfig{
		Failures: 2, Cooldown: time.Second, Now: clk.Now,
		OnTransition: func(from, to State) {
			got = append(got, from.String()+">"+to.String())
		},
	})
	// Closed -> Open after two failures.
	b.Allow()
	b.Record(true)
	b.Allow()
	b.Record(true)
	// Open -> HalfOpen via the cooled-down probe, then -> Open on probe
	// failure.
	clk.Advance(2 * time.Second)
	b.Allow()
	b.Record(true)
	// Open -> HalfOpen -> Closed on probe success.
	clk.Advance(2 * time.Second)
	b.Allow()
	b.Record(false)
	want := "closed>open;open>half-open;half-open>open;open>half-open;half-open>closed"
	if s := strings.Join(got, ";"); s != want {
		t.Fatalf("transitions:\n got %s\nwant %s", s, want)
	}
	// The callback may call back into the breaker: no deadlock.
	reentrant := NewBreaker(BreakerConfig{Failures: 1})
	reentrant.cfg.OnTransition = func(from, to State) { _ = reentrant.State() }
	reentrant.Record(true)
	if reentrant.State() != Open {
		t.Fatal("reentrant callback broke the transition")
	}
}
