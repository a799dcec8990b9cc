package main

import (
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark's own
// code around the call (nothing inside the program is instrumented).
// Name is "<layer>.<what>"; Parent is the index of the span that caused
// it (-1 for an op's root); Op identifies the op all its spans share.
// A replayed span times the same public function on the same bytes next
// to the call it explains rather than inside it: its interval lies
// outside its parent's, but its duration is still taken off the
// parent's self time.
type span struct {
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
	Op       int    `json:"op"`
	Replayed bool   `json:"replayed,omitempty"`
	// Fitted, when non-zero, is the factor the span's duration was
	// multiplied by to fit a replay into the call it explains: see fit.
	Fitted float64 `json:"fitted,omitempty"`
}

// ns is the span's duration as it counts towards self times.
func (s span) ns() float64 { return float64(s.End - s.Start) }

// measuredNs is the span's duration as the clock read it.
func (s span) measuredNs() float64 {
	if s.Fitted != 0 {
		return s.ns() / s.Fitted
	}
	return s.ns()
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how end-to-end runs are measured with tracing off.
// Spans are recorded by one goroutine at a time: the measuring
// goroutine, or rank 0 of a world whose Run that goroutine is blocked
// in, so no lock is needed.
type tracer struct {
	epoch time.Time
	spans []span
	op    int
	// oneIn, when above 1, traces only the last of every oneIn timed
	// ops, so that traced and untraced ops share the host's state and
	// their medians can be compared (the tracing overhead).
	oneIn int
}

// traces reports whether timed op i is a traced one.
func (t *tracer) traces(i int) bool {
	return t != nil && (t.oneIn <= 1 || i%t.oneIn == t.oneIn-1)
}

func newTracer(capacity int) *tracer {
	return &tracer{epoch: time.Now(), spans: make([]span, 0, capacity)}
}

// begin opens a span under parent and returns its index (-1 when
// tracing is off).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: parent, Op: t.op})
	return len(t.spans) - 1
}

// beginReplay opens a replayed span: see span.
func (t *tracer) beginReplay(name string, parent int) int {
	id := t.begin(name, parent)
	if id >= 0 {
		t.spans[id].Replayed = true
	}
	return id
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id].End = int64(time.Since(t.epoch))
	}
}

// fit rescales the spans recorded from index first on by k. A replayed
// call that takes milliseconds does not cost what the original did —
// other worlds, colder caches; serve-cold's replayed executions read 30
// to 50% slower than the handler that contains the original — so its
// subtree is fitted to the time the original had: the replay says how
// the time divides, the original how much there was to divide.
func (t *tracer) fit(first int, k float64) {
	for i := first; i < len(t.spans); i++ {
		s := &t.spans[i]
		s.End = s.Start + int64(float64(s.End-s.Start)*k)
		s.Fitted = k
	}
}

// nextOp starts a new op: later spans carry its identifier.
func (t *tracer) nextOp(op int) {
	if t != nil {
		t.op = op
	}
}

// layerOf is the layer a span name belongs to: the part before the
// first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfByName returns, per op, the self time in nanoseconds under each
// span name: every span's duration minus the durations of its direct
// children (nested or replayed), summed over the op's spans of that
// name. Summing an op's entries gives the duration of its root span
// less nothing: a replayed child only moves time from its parent's name
// to its own.
func selfByName(spans []span) map[int]map[string]float64 {
	self := make([]float64, len(spans))
	for i, s := range spans {
		self[i] += s.ns()
		if s.Parent >= 0 {
			self[s.Parent] -= s.ns()
		}
	}
	out := map[int]map[string]float64{}
	for i, s := range spans {
		m := out[s.Op]
		if m == nil {
			m = map[string]float64{}
			out[s.Op] = m
		}
		m[s.Name] += self[i]
	}
	return out
}
