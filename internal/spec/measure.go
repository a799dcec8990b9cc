package spec

import (
	"cmp"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/tune"
)

// This file is the measurement side of the selection engine's measured
// policy: a background Tuner that races every applicable registered
// algorithm's virtual time at a missed selection point — on a world
// built from the query's own topology, machine and noise profile, on
// the discrete-event engine — and records the winner in the tuning
// store. Selections never block on it: while a point's measurement is
// pending the engine serves the cost-policy choice (see coll.pick),
// and a later run against the warmed store serves the measured winner.
//
// Only world-communicator selection points are measured (the
// environment's communicator size equals the topology's rank count):
// there the race replays the exact call — same topology, same hop
// class, same noise — so the cached winner is the true argmin of the
// candidates' virtual times at that point. Sub-communicator points
// (the tiers of hierarchical compositions) keep the cost fallback; the
// store still answers for them if an entry exists.

// tuneKeyFor renders a selection environment as a store key. topoFP is
// the topology fingerprint in hex; noise the canonical noise JSON (""
// for a clean world).
func tuneKeyFor(cl coll.Collective, e coll.Env, topoFP, noise string) tune.Key {
	return tune.Key{
		Collective: cl.String(),
		CommSize:   e.Size,
		Bytes:      e.Bytes,
		Count:      e.Count,
		Hop:        e.Hop.String(),
		TopoFP:     topoFP,
		Noise:      noise,
	}
}

// topoFingerprint renders the store's topology-fingerprint field.
func topoFingerprint(t *sim.Topology) string {
	return fmt.Sprintf("%016x", t.Fingerprint())
}

// measureReq is one queued measurement: a missed selection point plus
// everything needed to rebuild its world.
type measureReq struct {
	key   tune.Key
	cl    coll.Collective
	env   coll.Env
	model *sim.CostModel
	topo  *sim.Topology
	noise *sim.Noise
}

// Tuner runs measured-policy measurements in the background and feeds
// a tune.Store. Attach one to Exec.Tuner (the server does this for
// every daemon); queries whose tuning policy is "measured" then report
// their selection misses here. One worker goroutine drains the queue,
// so measurements never compete with the query worlds for more than
// one core. The tuner, not the store, sees that each point is measured
// once: a miss for a point already cached or in flight (queued or
// being measured) is dropped, and a point whose measurement failed may
// be requested again.
type Tuner struct {
	store *tune.Store

	mu       sync.Mutex
	cond     *sync.Cond
	queue    []measureReq
	inflight map[tune.Key]struct{} // the keys queued or being measured
	busy     bool
	closed   bool
	done     chan struct{}

	errs atomic.Int64
}

// NewTuner starts a tuner over a store and returns it. Close releases
// its worker.
func NewTuner(store *tune.Store) *Tuner {
	t := &Tuner{store: store, inflight: map[tune.Key]struct{}{}, done: make(chan struct{})}
	t.cond = sync.NewCond(&t.mu)
	go t.worker()
	return t
}

// Store returns the tuning store the tuner measures into.
func (t *Tuner) Store() *tune.Store { return t.store }

// Errors returns how many measurements failed (world build or run
// errors); a failed point is measured again on a later miss.
func (t *Tuner) Errors() int64 { return t.errs.Load() }

// request enqueues a measurement unless the point is already cached,
// already in flight, or the tuner is closed. Never blocks on a
// measurement (it runs on simulated ranks' goroutines, under OnMiss).
func (t *Tuner) request(req measureReq) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.inflight[req.key]; ok || t.closed || t.store.Has(req.key) {
		return
	}
	t.inflight[req.key] = struct{}{}
	t.queue = append(t.queue, req)
	t.cond.Broadcast()
}

// Drain blocks until the measurement queue is empty and no measurement
// is in flight — the synchronous warm-up hook the tuned sweep and the
// tests use. Returns immediately on a closed tuner.
func (t *Tuner) Drain() {
	t.mu.Lock()
	for (len(t.queue) > 0 || t.busy) && !t.closed {
		t.cond.Wait()
	}
	t.mu.Unlock()
}

// Close stops the worker (waiting for an in-flight measurement to
// finish) and abandons queued requests. Idempotent.
func (t *Tuner) Close() {
	t.mu.Lock()
	t.closed = true
	t.queue, t.inflight = nil, nil
	t.cond.Broadcast()
	t.mu.Unlock()
	<-t.done
}

// worker drains the queue serially.
func (t *Tuner) worker() {
	defer close(t.done)
	t.mu.Lock()
	for {
		for len(t.queue) == 0 && !t.closed {
			t.cond.Broadcast() // wake Drain: idle
			t.cond.Wait()
		}
		if t.closed {
			t.cond.Broadcast()
			t.mu.Unlock()
			return
		}
		req := t.queue[0]
		t.queue = t.queue[1:]
		t.busy = true
		t.mu.Unlock()

		t.measure(req)

		t.mu.Lock()
		delete(t.inflight, req.key)
		t.busy = false
	}
}

// measure races every applicable registered algorithm of the missed
// point through coll.Race on one world — the query's topology, machine
// and noise, on the discrete-event engine with folding off — and
// records the winner. Ties break by registration order (MinFunc keeps
// the first of equal laps), matching the cost policy's tie-break.
func (t *Tuner) measure(req measureReq) {
	body, err := raceBody(req.cl, req.env)
	if err != nil {
		t.fail(req, err)
		return
	}
	w, err := mpi.NewWorldConfig(req.model, req.topo, mpi.Config{
		Engine: sim.EngineEvent,
		Noise:  req.noise,
	})
	if err != nil {
		t.fail(req, err)
		return
	}
	defer w.Close()

	laps, err := coll.Race(w, req.cl, req.env, body)
	if err != nil {
		t.fail(req, err)
		return
	}
	if len(laps) == 0 {
		t.fail(req, fmt.Errorf("no applicable candidate"))
		return
	}
	win := slices.MinFunc(laps, func(a, b coll.Lap) int { return cmp.Compare(a.Time, b.Time) })
	raced := make(map[string]int64, len(laps))
	for _, l := range laps {
		raced[l.Name] = int64(l.Time)
	}
	t.store.Put(req.key, tune.Entry{Algorithm: win.Name, WinnerPs: int64(win.Time), RacedPs: raced})
}

// fail counts and logs a failed measurement.
func (t *Tuner) fail(req measureReq, err error) {
	t.errs.Add(1)
	slog.Debug("tune measurement failed",
		"collective", req.key.Collective, "bytes", req.key.Bytes, "error", err)
}

// raceBody builds the single-operation measurement body of one
// selection point: the flat collective at the point's message size on
// the world communicator (the only communicators measured — see the
// file comment). One iteration: the race ranks candidates by the
// virtual makespan of exactly the call that missed. The reducing
// collectives' Bytes is 8*Count, which flatCalls turns back into Count
// float64s.
func raceBody(cl coll.Collective, e coll.Env) (func(*mpi.Comm) error, error) {
	call, ok := flatCalls[cl]
	if !ok {
		return nil, fmt.Errorf("collective %s is not measurable", cl)
	}
	b := e.Bytes
	if cl == coll.CollAllgatherv {
		// The missed environment's Bytes is the total result; race a
		// uniform split of it (the closest expressible call).
		b /= max(e.Size, 1)
	}
	return func(c *mpi.Comm) error { return call(c, b) }, nil
}

// installMeasured wires a query's compiled coll tuning to the tuner:
// lookups resolve against one immutable store snapshot (so every pick
// in the run sees the same store generation — bit-identical reruns on
// a warm store) and misses at world-communicator points enqueue
// background measurements. Returns the snapshot generation for the
// pool's shape key.
func installMeasured(tun *coll.Tuning, tr *Tuner, model *sim.CostModel, topo *sim.Topology, noise *sim.Noise, noiseKey string) uint64 {
	snap := tr.store.Snapshot()
	topoFP := topoFingerprint(topo)
	worldSize := topo.Size()
	tun.Lookup = func(cl coll.Collective, e coll.Env) (string, bool) {
		ent, ok := snap.Lookup(tuneKeyFor(cl, e, topoFP, noiseKey))
		if !ok {
			return "", false
		}
		return ent.Algorithm, true
	}
	tun.OnMiss = func(cl coll.Collective, e coll.Env) {
		if e.Size != worldSize {
			return
		}
		tr.request(measureReq{
			key:   tuneKeyFor(cl, e, topoFP, noiseKey),
			cl:    cl,
			env:   e,
			model: model,
			topo:  topo,
			noise: noise,
		})
	}
	return snap.Generation()
}
