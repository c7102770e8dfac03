package main

import (
	"sync/atomic"
	"time"

	"fastliveness/internal/telemetry"
)

// span is one timed call into a layer. Child is the part of the span's
// interval covered by its child spans and by child calls folded in as
// plain durations (per-query timings, too many to keep one span each).
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index into the recorder's spans; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Child  int64  `json:"child_ns"`
}

// tracer keeps one goroutine's spans in memory until the run ends.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer(epoch time.Time) *tracer { return &tracer{epoch: epoch} }

func (t *tracer) begin(name string, parent int) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Start: time.Since(t.epoch).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	s := &t.spans[id]
	s.End = time.Since(t.epoch).Nanoseconds()
	if s.Parent >= 0 {
		t.spans[s.Parent].Child += s.End - s.Start
	}
}

// fold charges ns of child time to span id.
func (t *tracer) fold(id int, ns int64) { t.spans[id].Child += ns }

// call records fn as a span named name under parent.
func (t *tracer) call(name string, parent int, fn func()) {
	id := t.begin(name, parent)
	fn()
	t.end(id)
}

// selfNs sums the self time (duration minus child time) of the spans
// named name.
func (t *tracer) selfNs(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start - s.Child
		}
	}
	return float64(ns)
}

// totalNs sums the durations of the spans named name.
func (t *tracer) totalNs(name string) float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Name == name {
			ns += s.End - s.Start
		}
	}
	return float64(ns)
}

// absorb appends o's spans, keeping their parent links.
func (t *tracer) absorb(o *tracer) {
	base := len(t.spans)
	for _, s := range o.spans {
		if s.Parent >= 0 {
			s.Parent += base
		}
		t.spans = append(t.spans, s)
	}
}

// engineEvents is the Tracer handed to the engine in traced runs: it counts
// builds and snapshot saves and sums build and snapshot-load time.
type engineEvents struct {
	telemetry.NopTracer
	builds, buildNs, loadNs, saves atomic.Int64
}

func (e *engineEvents) BuildEnd(_ string, d time.Duration, _ error) {
	e.builds.Add(1)
	e.buildNs.Add(d.Nanoseconds())
}

func (e *engineEvents) SnapshotLoad(_ string, _ bool, d time.Duration) { e.loadNs.Add(d.Nanoseconds()) }

func (e *engineEvents) SnapshotSave(ok bool, _ time.Duration) {
	if ok {
		e.saves.Add(1)
	}
}

// since returns the nanoseconds elapsed since start as a float.
func since(start time.Time) float64 { return float64(time.Since(start).Nanoseconds()) }
