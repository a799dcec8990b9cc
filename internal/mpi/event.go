package mpi

import (
	"errors"
	"fmt"
	"iter"
	"strconv"
	"strings"
)

// This file is the discrete-event execution backend (sim.EngineEvent):
// a cooperative single-threaded scheduler that runs exactly one rank at
// a time, in the order of a ready ring, instead of letting the Go
// runtime schedule all ranks in parallel (sim.EngineGoroutine). Each
// executing rank is a coroutine (iter.Pull), and the goroutine that
// called World.Run is the one driver: it pops the ring, resumes that
// rank, and gets control back when the rank parks (awaitSlot,
// awaitClose), yields (a Test poll) or finishes its body. A completer
// feeds the record's slot and puts the rank it satisfied on the ring
// (wake); a live, unaborted engine never touches a record's channel,
// since a parked rank re-checks its slot's state word when resumed.
// Control passes by coroutine switch alone, so all scheduler state is
// touched by one logical thread, and each switch is a happens-before
// edge for the race detector. What this saves is what the parallel
// engine pays for concurrency: lock contention, host scheduler churn,
// and a nondeterministic execution order. With rank-symmetry folding
// (fold.go), which shrinks the executing ranks to the distinct rank
// behaviors, it is what makes million-rank worlds affordable.
//
// Abort and deadlock. External goroutines may only poison the matcher
// and the live rendezvous rounds (World.Abort); they never touch
// scheduler state. A ready ring that runs dry with ranks still parked
// means nothing inside the world can wake them. If the world was
// aborted, the driver readies them so each can observe its sentinel or
// closed round; a rank that finds its record not yet fed by an outside
// abort walk sleeps on the record's channel, on the driver thread, until
// the walk feeds it. If not aborted, the run is deadlocked: the driver
// names each parked rank and the record it waits on in an ErrDeadlock,
// aborts the world and unwinds them the same way, so the Run returns and
// the world stays poisoned.

// ErrDeadlock is joined into a Run's error when the event engine finds
// every unfinished rank parked with nothing left to wake them.
var ErrDeadlock = errors.New("mpi: deadlock")

// Per-rank scheduler states. Only the driver's logical thread reads or
// writes them, so they are plain ints.
const (
	evIdle    int32 = iota // between Runs
	evReady                // enqueued on the ready ring
	evRunning              // resumed by the driver (at most one rank)
	evParked               // blocked in awaitSlot or awaitClose
	evDone                 // body finished this Run
)

// evSched is the event scheduler of one World: a coroutine per executing
// rank and the ready ring. It is created lazily at the first event-engine
// Run and lives until Close.
type evSched struct {
	w     *World
	n     int // executing ranks (World.execN)
	ranks []evRank
	ready []int32 // ring buffer; each rank appears at most once
	rhead int
	rlen  int
	done  int // ranks finished this Run
}

// evRank is one rank's coroutine: next resumes it (driver only), yield
// suspends it back to the driver (the rank itself only), stop ends it
// (Close only). on is the record the rank last parked on (a *message, a
// *recvReq or a *round), for the deadlock report.
type evRank struct {
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
	state int32
	on    any
}

// newEvSched builds the scheduler and one coroutine per rank, each
// suspended until its first dispatch.
func newEvSched(w *World, n int) *evSched {
	ev := &evSched{w: w, n: n, ranks: make([]evRank, n), ready: make([]int32, n)}
	for r := range ev.ranks {
		ev.ranks[r].next, ev.ranks[r].stop = iter.Pull(ev.body(r))
	}
	return ev
}

// body is rank r's coroutine: each resume after a finished body runs the
// body once more (World.runRank, shared with the goroutine engine), then
// suspends as done until the next Run, or returns when Close stops it.
func (ev *evSched) body(r int) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		ev.ranks[r].yield = yield
		for {
			ev.w.runRank(ev.w.procs[r])
			ev.ranks[r].state = evDone
			if !yield(struct{}{}) {
				return
			}
		}
	}
}

// run is the driver of one Run: it readies every rank and resumes them
// in ring order until each has finished its body. It returns an
// ErrDeadlock naming the parked ranks if it had to break a deadlock.
func (ev *evSched) run() error {
	ev.done = 0
	ev.rhead, ev.rlen = 0, 0
	for r := range ev.n {
		ev.ranks[r].state = evReady
		ev.pushReady(r)
	}
	var deadlock error
	for ev.done < ev.n {
		if ev.rlen == 0 {
			if !ev.w.Aborted() { // deadlock: every unfinished rank is parked
				deadlock = ev.deadlock()
				ev.w.Abort()
			}
			ev.wakeAllParked()
			continue
		}
		r := ev.ready[ev.rhead]
		if ev.rhead++; ev.rhead == ev.n {
			ev.rhead = 0
		}
		ev.rlen--
		ev.ranks[r].state = evRunning
		ev.ranks[r].next()
		if ev.ranks[r].state == evDone {
			ev.done++
		}
	}
	return deadlock
}

func (ev *evSched) pushReady(r int) {
	i := ev.rhead + ev.rlen
	if i >= ev.n {
		i -= ev.n
	}
	ev.ready[i] = int32(r)
	ev.rlen++
}

// deadlock is the report of a dry ring: the parked ranks, then one line
// per parked rank naming the record it waits on, in global ranks.
func (ev *evSched) deadlock() error {
	id := func(v, wild int) string {
		if v == wild {
			return "any"
		}
		return strconv.Itoa(v)
	}
	var parked []int
	var lines strings.Builder
	for r := range ev.n {
		if ev.ranks[r].state != evParked {
			continue
		}
		parked = append(parked, r)
		fmt.Fprintf(&lines, "\n\trank %d: ", r)
		switch rec := ev.ranks[r].on.(type) {
		case *recvReq:
			fmt.Fprintf(&lines, "recv from %s tag %s", id(rec.srcGlobal, AnySource), id(rec.tag, AnyTag))
		case *message:
			fmt.Fprintf(&lines, "send to %d tag %d", rec.dst, rec.tag)
		case *round:
			lines.WriteString("rendezvous round")
		}
	}
	return fmt.Errorf("%w: ranks %v parked with no event left to wake them:%s", ErrDeadlock, parked, lines.String())
}

// wakeAllParked readies every parked rank after an abort, so each can
// drain its poison sentinel or observe the aborted state and unwind.
func (ev *evSched) wakeAllParked() {
	for r := range ev.n {
		ev.wake(r)
	}
}

// wake enqueues a parked rank whose awaited record was just completed.
// Called by the completing rank; idempotent for ranks already ready,
// running, or done — a rank parked on record B may be woken by record
// A's completion, re-check B, and park again. A rendezvous round wakes
// its whole member table, which on a folded world also lists replicas
// (r >= n): they never execute.
func (ev *evSched) wake(r int) {
	if r < ev.n && ev.ranks[r].state == evParked {
		ev.ranks[r].state = evReady
		ev.pushReady(r)
	}
}

// park suspends the calling rank back to the driver until a wake; on is
// the record it waits on. The caller must re-check its wait condition
// on resume (wakes can be spurious, see wake).
func (ev *evSched) park(r int, on any) {
	ev.ranks[r].state = evParked
	ev.ranks[r].on = on
	ev.ranks[r].yield(struct{}{})
}

// yield re-enqueues the calling rank behind the current ready set and
// suspends it — the polling primitive behind Test in event mode, where
// a spin loop would otherwise starve every other rank forever.
func (ev *evSched) yield(r int) {
	ev.ranks[r].state = evReady
	ev.pushReady(r)
	ev.ranks[r].yield(struct{}{})
}

// shutdown ends every rank's coroutine. Called once, by World.Close, and
// only between Runs, when every rank is suspended after its body.
func (ev *evSched) shutdown() {
	for r := range ev.ranks {
		ev.ranks[r].stop()
	}
}

// wake readies a rank whose awaited record was just completed: a no-op
// on the goroutine engine, where the slot's feed (or the round's close)
// is the wake. The receiver is nil in Abort's walks — Abort may run on
// a goroutine outside the Run (spec's cancellation watcher) and must not
// touch scheduler state; the driver readies every parked rank once it
// finds the world aborted.
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

// awaitSlot is the wait on a record's slot (message.done,
// recvReq.result): rank p returns as soon as it loads fed. Whatever ends
// the wait — completion, abort, a peer's death, revocation — is fed
// through the slot itself, so no wait selects against an abort signal.
// A live, unaborted event engine parks the rank on the ring and
// re-checks on every wake, touching no channel. The goroutine engine,
// and the event engine after an abort (whose walks, possibly on a
// goroutine outside the Run, feed every queued record), announce a
// sleeper and block on the slot's channel unless the CAS finds the slot
// already fed. on is the record, for the deadlock report.
func awaitSlot[T any](p *Proc, s *slot[T], on any) T {
	w := p.world
	for !s.fed() {
		if w.evLive && !w.Aborted() {
			w.ev.park(p.rank, on)
			continue
		}
		if s.state.CompareAndSwap(slotEmpty, slotSleeper) {
			<-s.wake
		}
		break
	}
	return s.take()
}
