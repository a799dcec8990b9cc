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
// (wake); a live engine never touches a record's channel, since a
// parked rank re-checks its slot's state word when resumed. Control
// passes by coroutine switch alone, so everything a live Run touches —
// scheduler state, the contexts' message queues, the rendezvous rounds,
// the message and receive records — is touched by one logical thread,
// and each switch is a happens-before edge for the race detector. The
// matcher therefore takes no queue lock (matcher.postSend), and records
// recycle through the scheduler's own free lists instead of the
// process-wide pools (World.getMessage). What this saves is what the
// parallel engine pays for concurrency: locks, pool round trips, host
// scheduler churn, and a nondeterministic execution order. With
// rank-symmetry folding (fold.go), which shrinks the executing ranks to
// the distinct rank behaviors, it is what makes million-rank worlds
// affordable.
//
// Abort and deadlock. The driver is also the only code that walks a
// live Run's queues and rounds when the world is aborted. World.Abort
// from outside (spec's cancellation watcher) or from a rank only
// publishes the flag; a handshake under World.abortMu, taken when the
// driver goes live, when it stops, and in Abort, settles who walks. The
// driver runs the abort walk itself at its next dispatch, which feeds
// every queued record its sentinel, ends every live round and readies
// each rank it unblocked, and once more after its loop if the flag
// landed after the last dispatch. A parked rank is therefore always
// woken by the driver, and always parks. A ready ring that runs dry
// with ranks still parked, before any abort, means nothing inside the
// world can wake them: the run is deadlocked, and the driver names each
// parked rank and the record it waits on in an ErrDeadlock, aborts the
// world and walks it the same way, so the Run returns and the world
// stays poisoned.

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

	// The recycled message and receive records of this world's Runs
	// (World.getMessage): a live Run takes from and returns to them
	// only, and one ending cuts each back to n records (trim).
	msgs, rrs freeList
}

// freeList is a stack of recycled records, linked through their queue
// nodes (a free record is in no queue).
type freeList struct {
	head *qnode
	n    int
}

func (l *freeList) push(n *qnode) {
	n.next = l.head
	l.head = n
	l.n++
}

// pop takes the most recently pushed record, nil when the list is empty.
func (l *freeList) pop() *qnode {
	n := l.head
	if n != nil {
		l.head, n.next = n.next, nil
		l.n--
	}
	return n
}

// trim hands the records past the first keep back to the process-wide
// pools. A Run keeps the list at its high-water mark; between Runs a
// world keeps one record of each kind per executing rank, about what a
// ring, Bruck or recursive-doubling step has in flight (on the pooled
// 64-, 1,024- and 1,536-rank event worlds of the serve-cold benchmark
// no Run has more), and a Run that queued thousands of eager messages
// does not pin them all for the life of the world.
func (l *freeList) trim(keep int) {
	for l.n > keep {
		if n := l.pop(); n.msg != nil {
			msgPool.Put(n.msg)
		} else {
			recvReqPool.Put(n.rr)
		}
	}
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
// in ring order until each has finished its body, and runs the abort
// walk once the world is aborted (see the file comment). It returns an
// ErrDeadlock naming the parked ranks if it had to break a deadlock, and
// ErrAborted without running anything if the world was aborted before
// the driver went live.
func (ev *evSched) run() error {
	w := ev.w
	w.abortMu.Lock()
	if w.Aborted() {
		w.abortMu.Unlock()
		return errPoisoned
	}
	w.evLive = true
	w.abortMu.Unlock()

	ev.done = 0
	ev.rhead, ev.rlen = 0, 0
	for r := range ev.n {
		ev.ranks[r].state = evReady
		ev.pushReady(r)
	}
	var deadlock error
	walked := false
	for ev.done < ev.n {
		if !walked && w.Aborted() {
			walked = true
			w.abortWalk()
		}
		if ev.rlen == 0 {
			if walked {
				// The walk fed every queued record and ended every live
				// round, readying each rank parked on one; a rank can wait
				// on nothing else.
				panic("mpi: event engine: ranks still parked after the abort walk")
			}
			// Deadlock: every unfinished rank is parked.
			deadlock = ev.deadlock()
			w.Abort()
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

	w.abortMu.Lock()
	w.evLive = false
	late := !walked && w.Aborted()
	w.abortMu.Unlock()
	if late {
		w.abortWalk()
	}
	ev.msgs.trim(ev.n)
	ev.rrs.trim(ev.n)
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

// shutdown ends every rank's coroutine and hands the free lists'
// records to the process-wide pools, for the next world's first Run.
// Called once, by World.Close, and only between Runs, when every rank
// is suspended after its body.
func (ev *evSched) shutdown() {
	for r := range ev.ranks {
		ev.ranks[r].stop()
	}
	ev.msgs.trim(0)
	ev.rrs.trim(0)
}

// wake readies a rank whose awaited record was just completed: a no-op
// on the goroutine engine, where the slot's feed (or the round's close)
// is the wake. On a live event Run every completer runs on the driver
// thread, the abort walk included.
func (w *World) wake(rank int) {
	if w.evLive {
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
// A live event engine parks the rank on the ring and re-checks on every
// wake, touching no channel: every feed, the abort walk's included,
// runs on the driver thread and readies the rank. The goroutine engine
// announces a sleeper and blocks on the slot's channel unless the CAS
// finds the slot already fed. on is the record, for the deadlock report.
func awaitSlot[T any](p *Proc, s *slot[T], on any) T {
	w := p.world
	if w.evLive {
		for !s.fed() {
			w.ev.park(p.rank, on)
		}
	} else if !s.fed() && s.state.CompareAndSwap(slotEmpty, slotSleeper) {
		<-s.wake
	}
	return s.take()
}
