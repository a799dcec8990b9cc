package mpi

import "sync"

// This file is the discrete-event execution backend (sim.EngineEvent):
// a cooperative single-threaded scheduler that runs exactly one ready
// rank at a time and hands control off through an event (ready) queue,
// instead of letting the Go runtime schedule all ranks in parallel and
// park them on channels (World.Run, sim.EngineGoroutine).
//
// Rank bodies are arbitrary Go closures, so the continuation mechanism
// is still a goroutine per executing rank — Go offers no way to capture
// and resume a stack by hand — but at any moment exactly one of them
// runs; the rest are parked on per-rank gate channels. What the event
// core eliminates is everything the parallel engine pays for
// concurrency: lock contention in the matcher and the rendezvous, host
// scheduler churn, cache-line traffic between rank stacks, and the
// nondeterminism of execution order. Combined with rank-symmetry
// folding (fold logic in world.go/p2p.go), which shrinks the number of
// *executing* ranks to the number of distinct rank behaviors, it is
// what makes million-rank worlds affordable.
//
// Scheduling protocol. Control is a token: it starts with the Run
// caller, passes to a rank through a gate send, and comes back through
// the ctrl channel when every rank is done. A running rank that blocks
// (await) parks itself and forwards the token via dispatchNext; a
// rank whose operation completes is enqueued on the ready ring by the
// completer (wake) and resumed later by whichever rank holds the token.
// All scheduler state (states, ready ring, done count) is therefore
// mutated only by the token holder, and every handoff flows through a
// channel operation, so the backend is race-detector clean by
// construction.
//
// Abort. External goroutines may only close the world's abort channel
// and poison the matcher and the live rendezvous rounds (World.Abort) — they
// never touch scheduler state. When the token holder finds the ready
// ring empty with ranks still parked, no internal event can ever
// complete them: it blocks on the abort channel (a genuine deadlock
// hangs there, just like the goroutine engine) and, once poisoned, wakes
// every parked rank so each can observe its sentinel or closed round.

// Per-rank scheduler states. Only the token holder reads or writes
// them (see the protocol note above), so they are plain ints.
const (
	evIdle    int32 = iota // between Runs
	evReady                // enqueued on the ready ring
	evRunning              // holds the token (at most one rank)
	evParked               // blocked in await
	evDone                 // body finished this Run
)

// evSched is the event scheduler of one World: per-rank continuation
// goroutines, their gate channels, and the ready ring. It is created
// lazily at the first event-engine Run and lives until Close.
type evSched struct {
	w     *World
	n     int             // executing ranks (World.execN)
	gates []chan struct{} // cap 1: resume signal per rank
	state []int32
	ready []int32 // ring buffer; each rank appears at most once
	rhead int
	rlen  int
	done  int // ranks finished this Run

	ctrl chan struct{} // Run-complete signal back to the caller
	quit chan struct{}
	wg   sync.WaitGroup
}

// newEvSched builds the scheduler and spawns the continuation
// goroutines, parked until their first dispatch.
func newEvSched(w *World, n int) *evSched {
	ev := &evSched{
		w:     w,
		n:     n,
		gates: make([]chan struct{}, n),
		state: make([]int32, n),
		ready: make([]int32, n),
		ctrl:  make(chan struct{}, 1),
		quit:  make(chan struct{}),
	}
	for i := range ev.gates {
		// Cap 1 so a rank can be dispatched before it reaches its gate
		// receive — in particular when the token holder pops *itself*
		// after an abort wake-up.
		ev.gates[i] = make(chan struct{}, 1)
	}
	ev.wg.Add(n)
	for r := 0; r < n; r++ {
		go ev.worker(r)
	}
	return ev
}

// begin resets the per-Run state and enqueues every rank. Called by the
// Run driver before the first dispatch; the gate sends that follow
// publish these writes to the workers.
func (ev *evSched) begin() {
	ev.done = 0
	ev.rhead, ev.rlen = 0, 0
	for r := 0; r < ev.n; r++ {
		ev.state[r] = evReady
		ev.pushReady(r)
	}
}

func (ev *evSched) pushReady(r int) {
	ev.ready[(ev.rhead+ev.rlen)%ev.n] = int32(r)
	ev.rlen++
}

// dispatchNext passes the token: to the next ready rank, back to the
// Run caller when every rank is done, or — with parked ranks and an
// empty ring — to whoever aborts the job (the only external event that
// can unblock a single-threaded world).
func (ev *evSched) dispatchNext() {
	for {
		if ev.rlen > 0 {
			r := ev.ready[ev.rhead]
			ev.rhead = (ev.rhead + 1) % ev.n
			ev.rlen--
			ev.state[r] = evRunning
			ev.gates[r] <- struct{}{}
			return
		}
		if ev.done == ev.n {
			ev.ctrl <- struct{}{}
			return
		}
		<-ev.w.abortCh
		ev.wakeAllParked()
	}
}

// wakeAllParked readies every parked rank after an abort, so each can
// drain its poison sentinel or observe the aborted state and unwind.
func (ev *evSched) wakeAllParked() {
	for r := 0; r < ev.n; r++ {
		if ev.state[r] == evParked {
			ev.state[r] = evReady
			ev.pushReady(r)
		}
	}
}

// wake enqueues a parked rank whose awaited record was just completed.
// Called by the completing rank (the token holder); idempotent for
// ranks already ready, running, or done — a rank parked on record B
// may be woken by record A's completion, re-check B, and park again.
// A rendezvous round wakes its whole member table, which on a folded
// world also lists replicas (r >= n): they never execute.
func (ev *evSched) wake(r int) {
	if r < ev.n && ev.state[r] == evParked {
		ev.state[r] = evReady
		ev.pushReady(r)
	}
}

// park blocks the calling rank: it hands the token off and waits for a
// wake. The caller must re-check its wait condition on resume (wakes
// can be spurious, see wake).
func (ev *evSched) park(r int) {
	ev.state[r] = evParked
	ev.dispatchNext()
	<-ev.gates[r]
}

// yield re-enqueues the calling rank behind the current ready set and
// hands the token off — the polling primitive behind Test in event
// mode, where a spin loop would otherwise starve every other rank
// forever.
func (ev *evSched) yield(r int) {
	ev.state[r] = evReady
	ev.pushReady(r)
	ev.dispatchNext()
	<-ev.gates[r]
}

// worker is one rank's continuation goroutine: dispatched once per Run,
// it executes the body (World.runRank, shared with the goroutine
// engine), then marks itself done and passes the token on.
func (ev *evSched) worker(r int) {
	defer ev.wg.Done()
	for {
		select {
		case <-ev.gates[r]:
		case <-ev.quit:
			return
		}
		ev.w.runRank(ev.w.procs[r])
		ev.state[r] = evDone
		ev.done++
		ev.dispatchNext()
	}
}

// shutdown wakes the parked workers and waits for them to exit. Called
// once, by World.Close, and only between Runs (all workers at their
// loop-top select).
func (ev *evSched) shutdown() {
	close(ev.quit)
	ev.wg.Wait()
}

// wake readies a rank whose awaited channel was just fed: a no-op on the
// goroutine engine, where feeding the channel is the wake. The receiver
// is nil in Abort's walks — Abort may run on a goroutine outside the Run
// (spec's cancellation watcher) and must not touch scheduler state; once
// abortCh is closed the empty-ring path readies every parked rank.
func (w *World) wake(rank int) {
	if w != nil && w.evLive {
		w.ev.wake(rank)
	}
}

// yield lets the other ranks run between two polls of a Test loop: on
// the single-threaded event engine a spin would starve them forever.
func (p *Proc) yield() {
	if w := p.world; w.evLive {
		w.ev.yield(p.rank)
	}
}

// await is the one park of the runtime: rank p blocks until ch yields.
// Whatever ends the wait — completion, abort, a peer's death, revocation
// — arrives through ch itself (a value, a sentinel, a close), so the
// goroutine engine takes a plain receive, never a select against the
// abort channel. The event engine polls, parks and re-checks on every
// wake; after an abort it receives directly, since the poison walks feed
// every queued record and close every live round.
func await[T any](p *Proc, ch <-chan T) T {
	w := p.world
	if !w.evLive {
		return <-ch
	}
	for {
		select {
		case v := <-ch:
			return v
		default:
		}
		if w.Aborted() {
			return <-ch
		}
		w.ev.park(p.rank)
	}
}
