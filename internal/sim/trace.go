package sim

import (
	"sort"
	"sync"
)

// Event is one recorded simulator event (a message, copy, or phase
// marker). Tracing is optional and off by default; the experiment
// harness enables it with -trace for debugging cost-model behaviour.
type Event struct {
	At    Time   // virtual time at which the event completed
	Rank  int    // global rank that recorded the event
	Kind  string // "send", "recv", "copy", "compute", "phase", ...
	Bytes int
	Note  string
}

// Tracer collects events from concurrently running rank goroutines.
// The zero value discards everything; NewTracer returns a recording one.
type Tracer struct {
	mu     sync.Mutex
	events []Event
	on     bool
}

// NewTracer returns a recording tracer.
func NewTracer() *Tracer { return &Tracer{on: true} }

// Enabled reports whether events are being recorded.
func (t *Tracer) Enabled() bool { return t != nil && t.on }

// Record appends an event. Safe for concurrent use; a nil or disabled
// tracer is a no-op, so hot paths can call it unconditionally.
func (t *Tracer) Record(e Event) {
	if t == nil || !t.on {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Events returns a copy of the recorded events sorted by virtual time
// (ties broken by rank, then insertion order is preserved by stable
// sort).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := append([]Event(nil), t.events...)
	t.mu.Unlock()
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}
