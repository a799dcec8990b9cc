// Package mpi is an MPI-like message-passing runtime over the simulated
// cluster of internal/sim. Each rank runs as a goroutine (the goroutine
// engine) or as a coroutine the Run's caller resumes (the event
// engine); communicators, point-to-point messaging, and MPI-3-style
// shared-memory windows follow the MPI-3 semantics the paper relies on
// (MPI_Comm_split_type, MPI_Win_allocate_shared, MPI_Win_shared_query,
// ...), while all timing is virtual and deterministic.
package mpi

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// World owns one simulated job: the topology, the cost model, the
// message-matching engine, the per-rank processes, and the record of
// every communicator context opened on it (Context, coord.go), which is
// where all per-communicator state lives.
type World struct {
	topo   *sim.Topology
	model  *sim.CostModel
	tracer *sim.Tracer
	real   bool // real data movement (tests) vs size-only (big benches)

	match   *matcher
	collCfg any // default collective-tuning config inherited by CommWorld

	// ctxs lists the live contexts, the world communicator's first
	// (worldCx), for the poison walks and the folded-run tripwire. A
	// context opened inside a Run leaves it when that Run ends, so a
	// handle lives for the Run that built it.
	ctxMu   sync.Mutex
	ctxs    []*Context
	worldCx *Context

	// Deterministic noise/fault layer (fault.go). noise is the compiled
	// per-world state (nil for a clean world); damaged latches once any
	// rank dies so pools never reuse a world with dead ranks.
	noise   *noiseState
	damaged atomic.Bool

	identity []int // comm rank == global rank table for COMM_WORLD
	procs    []*Proc

	// Execution engine: the goroutine backend's per-rank entry point
	// (spawned execN times per Run), the event scheduler (event backend,
	// lazily created), the reusable per-Run dispatch record, and the Run
	// gate that enforces the one-Run-at-a-time /
	// no-clock-reads-during-Run contract.
	engine   sim.Engine
	ev       *evSched
	rankMain func() // w.runNextRank, bound once so `go w.rankMain()` allocates nothing
	run      runState
	running  atomic.Bool
	closed   atomic.Bool

	// evLive is set while an event-engine Run's driver is live: while
	// it is, the driver thread is the only code that touches the
	// world's queues, rounds and records, so the matcher skips its queue
	// locks, records recycle through the scheduler's free lists, waits
	// park, and an abort only publishes its flag for the driver to walk
	// (Abort). Only the driver writes it, and only under abortMu, the
	// handshake Abort reads it under; the ranks the driver runs read it
	// freely.
	abortMu sync.Mutex
	evLive  bool

	// Rank-symmetry folding (fold.go): with foldUnit u > 0 only ranks
	// 0..u-1 execute; every rank r aliases the Proc of its class
	// representative r%u, so replica clocks are literally the
	// representative's. execN is the number of executing ranks (u when
	// folded, Size() otherwise).
	foldUnit int
	execN    int

	abortOnce sync.Once
}

// ErrAborted is returned from blocking operations when another rank of
// the job failed. Real MPI jobs abort globally on rank failure; the
// simulator mirrors that so one rank's error cannot strand its peers in
// a barrier forever.
var ErrAborted = errors.New("mpi: job aborted because another rank failed")

// errPoisoned is Run's refusal of an aborted world.
var errPoisoned = fmt.Errorf("mpi: Run on poisoned world: %w", ErrAborted)

// Abort wakes every blocked operation with ErrAborted. It is invoked
// automatically when a rank body returns an error or panics; tests use
// it directly for failure injection, and it is safe from any goroutine.
// A world stays poisoned after Abort.
//
// Every wait is on the slot of the record (awaitSlot, event.go) or the
// channel of the round (awaitClose, coord.go) the rank waits on, so
// Abort reaches them all the same way: flag first, then one pass over
// the live contexts (abortWalk) feeds every queued matcher record the
// abortClock sentinel and closes every live rendezvous round. Who walks
// is settled under abortMu: while an event-engine Run is live its
// driver owns the queues and rounds, so Abort only publishes the flag
// and the driver walks at its next dispatch (evSched.run); otherwise —
// on the goroutine engine, or between Runs — Abort walks itself, under
// the queue and context locks.
func (w *World) Abort() {
	w.abortOnce.Do(func() {
		w.abortMu.Lock()
		w.match.aborted.Store(true)
		driven := w.evLive
		w.abortMu.Unlock()
		if !driven {
			w.abortWalk()
		}
	})
}

// abortWalk feeds every queued record the abortClock sentinel and ends
// every live round with ErrAborted.
func (w *World) abortWalk() {
	w.poison(abortClock, ErrAborted, func(int) bool { return true })
}

// Closed reports whether Close has run. A closed world cannot Run
// again; pools holding warm worlds consult it before parking one.
func (w *World) Closed() bool { return w.closed.Load() }

// Aborted reports whether the job was aborted.
func (w *World) Aborted() bool { return w.match.aborted.Load() }

// Config collects every World construction knob in one declarative,
// value-semantics record — the single construction path layered
// packages (internal/spec in particular) target. The functional
// options below are thin wrappers over its fields; DefaultConfig is
// the zero behavior NewWorld applies them to.
type Config struct {
	// Engine selects the execution backend Runs dispatch on:
	// sim.EngineGoroutine (one goroutine per rank per Run) or
	// sim.EngineEvent (single-threaded discrete-event scheduler).
	// The zero value is EngineGoroutine.
	Engine sim.Engine
	// FoldUnit enables rank-symmetry folding: only ranks 0..FoldUnit-1
	// execute, every other rank aliases its class representative (see
	// fold.go for the contract). 0 runs every rank. The unit is
	// validated against the topology at construction.
	FoldUnit int
	// RealData makes buffers allocated through World helpers carry real
	// bytes and eager sends snapshot payloads. Tests use it; the big
	// size-only benchmark sweeps do not (see Buf). Incompatible with
	// FoldUnit > 0.
	RealData bool
	// Tracer, when non-nil, receives every simulated event.
	Tracer *sim.Tracer
	// CollConfig is the world-default collective-tuning configuration
	// (an internal/coll Tuning value, opaque here). Every rank's
	// CommWorld handle — and every communicator derived from it —
	// inherits the value.
	CollConfig any
	// Noise configures the deterministic noise/fault layer (compute
	// jitter, stragglers, link congestion, scheduled rank failures).
	// Nil (or a zero value) runs a perfectly clean world. A config
	// whose BreaksSymmetry() is true is incompatible with FoldUnit > 0.
	Noise *sim.Noise
}

// DefaultConfig returns the configuration NewWorld starts from before
// applying options: the goroutine engine, no folding, size-only
// buffers, no tracer, no collective tuning.
func DefaultConfig() Config { return Config{} }

// Option configures a World at construction by editing its Config.
type Option func(*Config)

// WithRealData makes buffers allocated through World helpers carry real
// bytes and eager sends snapshot payloads (Config.RealData).
func WithRealData() Option { return func(c *Config) { c.RealData = true } }

// WithTracer attaches an event tracer (Config.Tracer).
func WithTracer(t *sim.Tracer) Option { return func(c *Config) { c.Tracer = t } }

// WithCollConfig sets the world-default collective-tuning configuration
// (Config.CollConfig), which is how a workload or benchmark threads a
// tuning policy through to the hybrid and collective layers.
func WithCollConfig(v any) Option { return func(c *Config) { c.CollConfig = v } }

// WithEngine selects the execution backend for this world
// (Config.Engine).
func WithEngine(e sim.Engine) Option { return func(c *Config) { c.Engine = e } }

// WithNoise attaches a deterministic noise/fault config (Config.Noise).
func WithNoise(n *sim.Noise) Option { return func(c *Config) { c.Noise = n } }

// NewWorld creates a simulated MPI job on the given topology and machine
// model, applying the options to DefaultConfig.
func NewWorld(model *sim.CostModel, topo *sim.Topology, opts ...Option) (*World, error) {
	cfg := DefaultConfig()
	for _, o := range opts {
		o(&cfg)
	}
	return NewWorldConfig(model, topo, cfg)
}

// NewWorldConfig creates a simulated MPI job from an explicit Config —
// the declarative construction path. NewWorld's functional options are
// a thin layer over it.
func NewWorldConfig(model *sim.CostModel, topo *sim.Topology, cfg Config) (*World, error) {
	if err := model.Validate(); err != nil {
		return nil, err
	}
	if topo == nil || topo.Size() == 0 {
		return nil, errors.New("mpi: nil or empty topology")
	}
	w := &World{
		topo:     topo,
		model:    model,
		engine:   cfg.Engine,
		real:     cfg.RealData,
		tracer:   cfg.Tracer,
		collCfg:  cfg.CollConfig,
		foldUnit: cfg.FoldUnit,
		match:    &matcher{fold: cfg.FoldUnit},
	}
	if err := w.validateFold(); err != nil {
		return nil, err
	}
	if err := cfg.Noise.Validate(topo.Size()); err != nil {
		return nil, err
	}
	if cfg.Noise.BreaksSymmetry() && cfg.FoldUnit > 0 {
		return nil, fmt.Errorf("mpi: noise config breaks rank symmetry (jitter/stragglers/failures): %w", ErrFoldUnsafe)
	}
	w.noise = compileNoise(cfg.Noise, topo.Size())
	w.execN = topo.Size()
	if w.foldUnit > 0 {
		w.execN = w.foldUnit
	}
	w.rankMain = w.runNextRank
	if w.hasFailures() {
		w.match.dead = make([]atomic.Bool, topo.Size())
	}
	w.identity = make([]int, topo.Size())
	w.procs = make([]*Proc, topo.Size())
	store := make([]Proc, w.execN) // one allocation, not one per rank
	for i := range store {
		store[i] = Proc{world: w, rank: i}
	}
	for r := range w.procs {
		w.identity[r] = r
		w.procs[r] = &store[r%w.execN]
	}
	w.worldCx = w.NewContext(w.identity)
	return w, nil
}

// Topology returns the node layout.
func (w *World) Topology() *sim.Topology { return w.topo }

// RealData reports whether buffers carry real bytes.
func (w *World) RealData() bool { return w.real }

// Size returns the number of ranks.
func (w *World) Size() int { return w.topo.Size() }

// NewBuf allocates a buffer honoring the world's data mode.
func (w *World) NewBuf(n int) Buf { return Alloc(n, w.real) }

// RankError describes a failure on one rank of a Run.
type RankError struct {
	Rank int
	Err  error
}

// Error implements error.
func (e *RankError) Error() string { return fmt.Sprintf("rank %d: %v", e.Rank, e.Err) }

// Unwrap exposes the underlying error.
func (e *RankError) Unwrap() error { return e.Err }

// ErrClosed is returned by Run on a closed World.
var ErrClosed = errors.New("mpi: world closed")

// runState is the per-Run dispatch record, owned by the World and
// reused across calls so a steady-state Run allocates nothing.
type runState struct {
	body func(p *Proc) error
	errs []error
	wg   sync.WaitGroup
	next atomic.Int32 // goroutine engine: next rank to hand out
}

// Run executes body once per executing rank and waits for all of them.
// On the goroutine engine it spawns one goroutine per rank and joins
// them, so a world holds no goroutine between Runs; on the event engine
// the caller drives the scheduler's rank coroutines, which live until
// Close. Panics inside a rank are recovered and reported as that rank's
// error. The returned error joins every failing rank's error
// (errors.Join), nil if all ranks succeeded; on the event engine a
// deadlock adds an ErrDeadlock naming the parked ranks, and leaves the
// world aborted.
//
// Run may be called repeatedly on the same World; clocks continue from
// where the previous Run left them (use ResetClocks between independent
// measurements). This is the warm-world contract the spec layer's
// world pool is built on: a world that finished a Run cleanly (no
// error, no abort) is drained — matcher queues empty, no rendezvous
// round live — and a ResetClocks+Run cycle on it produces
// virtual times bit-identical to a freshly constructed world of the
// same shape. A handle lives for the Run that built it: Run drops the
// contexts it opened when it returns, so the world holds what it held
// before, and a handle carried into a later Run (CommWorld's aside) is
// refused with an error naming its communicator. Run on an aborted
// world fails immediately with ErrAborted (the world stays poisoned),
// and on a closed world with ErrClosed. Calls must not overlap: a
// second Run while one is in flight panics.
func (w *World) Run(body func(p *Proc) error) error {
	if w.closed.Load() {
		return ErrClosed
	}
	if w.Aborted() {
		return errPoisoned
	}
	if !w.running.CompareAndSwap(false, true) {
		panic("mpi: concurrent World.Run calls")
	}
	defer w.running.Store(false)

	held := len(w.ctxs) // the contexts from before this Run; none is being opened now
	st := &w.run
	st.body = body
	if st.errs == nil {
		st.errs = make([]error, w.execN)
	} else {
		clear(st.errs)
	}
	var deadlock error // the event driver's report: a deadlock it broke, or an abort that beat its start
	if w.engine == sim.EngineEvent {
		if w.ev == nil {
			w.ev = newEvSched(w, w.execN)
		}
		deadlock = w.ev.run()
	} else {
		st.next.Store(0)
		st.wg.Add(w.execN)
		for r := 0; r < w.execN; r++ {
			go w.rankMain()
		}
		st.wg.Wait()
	}
	st.body = nil
	err := errors.Join(deadlock, errors.Join(st.errs...))
	if w.foldUnit > 0 {
		err = w.finishFoldedRun(err)
	}
	w.retireSince(held)
	return err
}

// runNextRank is the body of one goroutine-engine rank goroutine: it
// claims the next unclaimed rank of the Run in flight and executes it.
func (w *World) runNextRank() {
	defer w.run.wg.Done()
	w.runRank(w.procs[w.run.next.Add(1)-1])
}

// runRank executes the Run body on one rank, on either engine: panics
// are recovered and reported as the rank's error, rendezvous aborts
// surface as ErrAborted, and a failing rank aborts the job, as mpirun
// would, so peers blocked in collectives wake up with ErrAborted
// instead of hanging.
func (w *World) runRank(p *Proc) {
	st := &w.run
	defer func() {
		if rec := recover(); rec != nil {
			st.errs[p.rank] = recoveredRankError(p, rec)
		}
	}()
	if err := st.body(p); err != nil {
		st.errs[p.rank] = &RankError{Rank: p.rank, Err: err}
		w.Abort()
	}
}

// recoveredRankError converts a recovered rank panic into the rank's
// reported error. Rendezvous waits signal job aborts by panicking with
// ErrAborted; those are reported cleanly rather than as crashes. Any
// other panic aborts the job.
func recoveredRankError(p *Proc, rec any) error {
	if rec == errRankKilled {
		// A scheduled death is not a bug: the rank simply stops. Its
		// peers observe the failure through the fault machinery
		// (ErrRankFailed) and decide whether to recover or abort.
		return nil
	}
	if e, ok := rec.(error); ok {
		if errors.Is(e, ErrAborted) {
			return &RankError{Rank: p.rank, Err: e}
		}
		if errors.Is(e, ErrRankFailed) || errors.Is(e, ErrRevoked) {
			// A rank that gives up on a peer's failure (instead of
			// recovering via Revoke/Shrink) fails the job, MPI's
			// MPI_ERRORS_ARE_FATAL default. Abort so ranks parked in
			// collectives with the dead rank wake up.
			p.world.Abort()
			return &RankError{Rank: p.rank, Err: e}
		}
		if errors.Is(e, ErrFoldUnsafe) {
			// A fold-unsafe operation is symmetric: every executing
			// rank hits the same guard. Abort so any rank already
			// parked in the offending collective wakes up.
			p.world.Abort()
			return &RankError{Rank: p.rank, Err: e}
		}
	}
	p.world.Abort()
	return &RankError{
		Rank: p.rank,
		Err:  fmt.Errorf("panic: %v\n%s", rec, debug.Stack()),
	}
}

// Close retires the world: later Run calls fail with ErrClosed, and an
// event-engine world's rank coroutines are stopped. A world that only
// ever ran on the goroutine engine holds no goroutine between Runs, so
// for it Close only latches the flag; a world that ran on the event
// engine must be closed to release its scheduler. Close is
// idempotent and safe on a world that never ran; it must not be called
// while a Run is in flight.
func (w *World) Close() {
	if w.running.Load() {
		panic("mpi: Close during Run")
	}
	if w.closed.CompareAndSwap(false, true) && w.ev != nil {
		w.ev.shutdown()
	}
}

// DrainIdleWorkers does nothing and returns 0: no goroutine outlives a
// Run or a Close, so there is no reserve to drain. It survives only
// because benchmark/serve.go:82, its last caller, is frozen.
func DrainIdleWorkers() int { return 0 }

// assertNotRunning guards the clock accessors: per-rank clocks are
// owned by the rank goroutines while a Run is in flight, so reading or
// writing them concurrently would race. They are meaningful only
// between Runs.
func (w *World) assertNotRunning(op string) {
	if w.running.Load() {
		panic("mpi: " + op + " during Run — clocks are owned by the rank goroutines while a Run is in flight")
	}
}

// ResetClocks zeroes every rank's virtual clock (between benchmark
// repetitions). It must not be called while a Run is in flight.
func (w *World) ResetClocks() {
	w.assertNotRunning("ResetClocks")
	for _, p := range w.procs {
		p.clock = 0
		p.noiseOps = 0
	}
}

// MaxClock returns the latest clock across ranks — the virtual makespan
// of everything run so far. It must not be called while a Run is in
// flight.
func (w *World) MaxClock() sim.Time {
	w.assertNotRunning("MaxClock")
	var max sim.Time
	for _, p := range w.procs {
		if p.clock > max {
			max = p.clock
		}
	}
	return max
}
