package spec

import (
	"fmt"
	"log/slog"
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
// one core and each point is measured exactly once (the store's claim
// set is the singleflight).
type Tuner struct {
	store *tune.Store

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []measureReq
	busy   bool
	closed bool
	done   chan struct{}

	errs atomic.Int64
}

// NewTuner starts a tuner over a store and returns it. Close releases
// its worker.
func NewTuner(store *tune.Store) *Tuner {
	t := &Tuner{store: store, done: make(chan struct{})}
	t.cond = sync.NewCond(&t.mu)
	go t.worker()
	return t
}

// Store returns the tuning store the tuner measures into.
func (t *Tuner) Store() *tune.Store { return t.store }

// Errors returns how many measurements failed (world build or run
// errors); failed points are released for a later retry.
func (t *Tuner) Errors() int64 { return t.errs.Load() }

// request enqueues a measurement unless the point is already cached,
// already in flight, or the tuner is closed. Never blocks (it runs on
// simulated ranks' goroutines, under OnMiss).
func (t *Tuner) request(req measureReq) {
	if !t.store.Claim(req.key) {
		return
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		t.store.Release(req.key)
		return
	}
	t.queue = append(t.queue, req)
	t.cond.Broadcast()
	t.mu.Unlock()
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
// finish), abandons queued requests, and releases their claims.
// Idempotent.
func (t *Tuner) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		<-t.done
		return
	}
	t.closed = true
	abandoned := t.queue
	t.queue = nil
	t.cond.Broadcast()
	t.mu.Unlock()
	for _, req := range abandoned {
		t.store.Release(req.key)
	}
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
		t.busy = false
	}
}

// measure races every applicable registered algorithm of the missed
// point on one world — the query's topology, machine and noise, on the
// discrete-event engine with folding off — and records the winner.
// Candidates run back-to-back with ResetClocks between them, so each
// timing starts from operation zero exactly like a fresh world (noise
// draws are keyed by op index and reset with the clocks). Ties break
// by registration order, matching the cost policy's tie-break.
func (t *Tuner) measure(req measureReq) {
	w, err := mpi.NewWorldConfig(req.model, req.topo, mpi.Config{
		Engine: sim.EngineEvent,
		Noise:  req.noise,
	})
	if err != nil {
		t.fail(req, err)
		return
	}
	defer w.Close()

	raced := map[string]int64{}
	var winner string
	var winnerPs int64
	for _, name := range coll.Algorithms(req.cl) {
		if !coll.Available(req.cl, name, req.env) {
			continue
		}
		forced := coll.Tuning{Force: map[coll.Collective]string{req.cl: name}}
		body, err := raceBody(req.cl, req.env)
		if err != nil {
			t.fail(req, err)
			return
		}
		w.ResetClocks()
		if err := w.Run(func(p *mpi.Proc) error {
			coll.WithTuning(p.CommWorld(), forced)
			return body(p)
		}); err != nil {
			t.fail(req, fmt.Errorf("racing %s: %w", name, err))
			return
		}
		ps := int64(w.MaxClock())
		raced[name] = ps
		if winner == "" || ps < winnerPs {
			winner, winnerPs = name, ps
		}
	}
	if winner == "" {
		t.fail(req, fmt.Errorf("no applicable candidate"))
		return
	}
	t.store.Put(req.key, tune.Entry{Algorithm: winner, WinnerPs: winnerPs, RacedPs: raced})
}

// fail releases the point's claim (a later miss may retry) and counts
// the error.
func (t *Tuner) fail(req measureReq, err error) {
	t.store.Release(req.key)
	t.errs.Add(1)
	slog.Debug("tune measurement failed",
		"collective", req.key.Collective, "bytes", req.key.Bytes, "error", err)
}

// raceBody builds the single-operation measurement body of one
// selection point: the flat collective at the point's message size on
// the world communicator (the only communicators measured — see the
// file comment). Size-only buffers, one iteration: the race ranks
// candidates by the virtual makespan of exactly the call that missed.
func raceBody(cl coll.Collective, e coll.Env) (func(p *mpi.Proc) error, error) {
	b, n := e.Bytes, e.Count
	switch cl {
	case coll.CollAllgather:
		return func(p *mpi.Proc) error {
			return coll.Allgather(p.CommWorld(), mpi.Sized(b), mpi.Sized(b*p.Size()), b)
		}, nil
	case coll.CollAllgatherv:
		// The missed environment's Bytes is the total result; race a
		// uniform split of it (the closest expressible call).
		return func(p *mpi.Proc) error {
			c := p.CommWorld()
			per := b / max(c.Size(), 1)
			counts := make([]int, c.Size())
			for i := range counts {
				counts[i] = per
			}
			return coll.Allgatherv(c, mpi.Sized(per), mpi.Sized(per*c.Size()), counts)
		}, nil
	case coll.CollAllreduce:
		return func(p *mpi.Proc) error {
			return coll.Allreduce(p.CommWorld(), mpi.Sized(n*8), mpi.Sized(n*8), n, mpi.Float64, mpi.OpSum)
		}, nil
	case coll.CollReduce:
		return func(p *mpi.Proc) error {
			return coll.Reduce(p.CommWorld(), mpi.Sized(n*8), mpi.Sized(n*8), n, mpi.Float64, mpi.OpSum, 0)
		}, nil
	case coll.CollScan:
		return func(p *mpi.Proc) error {
			return coll.Scan(p.CommWorld(), mpi.Sized(n*8), mpi.Sized(n*8), n, mpi.Float64, mpi.OpSum)
		}, nil
	case coll.CollBcast:
		return func(p *mpi.Proc) error {
			return coll.Bcast(p.CommWorld(), mpi.Sized(b), 0)
		}, nil
	case coll.CollBarrier:
		return func(p *mpi.Proc) error { return coll.Barrier(p.CommWorld()) }, nil
	case coll.CollAlltoall:
		return func(p *mpi.Proc) error {
			c := p.CommWorld()
			return coll.Alltoall(c, mpi.Sized(b*c.Size()), mpi.Sized(b*c.Size()), b)
		}, nil
	case coll.CollGather:
		return func(p *mpi.Proc) error {
			c := p.CommWorld()
			return coll.Gather(c, mpi.Sized(b), mpi.Sized(b*c.Size()), b, 0)
		}, nil
	default:
		return nil, fmt.Errorf("collective %s is not measurable", cl)
	}
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
