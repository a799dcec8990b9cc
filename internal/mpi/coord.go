package mpi

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// A Context is one communicator as the runtime knows it: the record
// every member's handle points at from construction, so no path ever
// looks a context up. It carries the member table with the facts that
// depend on nothing else, the message queues of its executing members,
// its state, and the untimed control plane: one rendezvous, whose
// rounds serve both clock fusion (FuseClocks, the on-node
// synchronisation on the hot path, Sect. 6) and setup exchanges
// (generic Split, window allocation, Agree/Shrink: the one-offs the
// paper keeps out of every measurement, Sect. 4.1), and the slots of
// the exchange-free setup calls (SetupOnce, derive.go). Every member
// calls the collectives of a communicator in the same order and each
// rendezvous blocks until its round ends, so a context has at most one
// round collecting arrivals and rounds need no key.
//
// Who writes what: InitContexts fills ranks, exec, hop, oneNode and
// queues before any handle exists; a queue's records are touched only
// under its lock; state goes live -> revoked once (Revoke, before its
// queue walk) and -> retired when the Run that opened the context ends,
// so a handle lives for the Run that built it (the world communicator's
// record, and those opened between Runs, live as long as the world);
// cur, slots and base are touched only under mu. Why nothing here is
// sharded: DESIGN.md, "Communicator contexts".
type Context struct {
	ranks []int // comm rank -> global rank (shared, read-only)

	// The facts of the member table. exec is the one count of members
	// that execute — all of them, or under rank-symmetry folding those
	// inside the fold unit — behind ExecSpan, FuseClocks' round size,
	// the slot countdown and the queue count alike.
	exec    int
	hop     sim.HopClass // see Comm.HopClass
	oneNode bool         // every member lives on one node

	queues []rankQueue  // comm rank -> the queue of messages to it, one per executing member (p2p.go)
	state  atomic.Int32 // ctxLive, ctxRevoked or ctxRetired

	mu    sync.Mutex
	cur   *round      // the round still collecting arrivals (or being built), nil between rounds
	slots *setupEntry // live setup slots, linked oldest first: calls base, base+1, ...
	base  int
}

// The states of a context.
const (
	ctxLive int32 = iota
	ctxRevoked
	ctxRetired
)

// refusal is why the context refuses a post (posting) or a control-plane
// call, nil when it does not: recovery (Agree, Shrink) runs on a revoked
// communicator, nothing runs on a retired one.
func (cx *Context) refusal(posting bool) error {
	switch s := cx.state.Load(); {
	case s == ctxLive, s == ctxRevoked && !posting:
		return nil
	case s == ctxRevoked:
		return ErrRevoked
	}
	return fmt.Errorf("mpi: %d-rank communicator was opened in an earlier Run: %w", len(cx.ranks), ErrRevoked)
}

// NewContext opens one communicator context over a member table (comm
// rank -> global rank, shared read-only from here on), allocating the
// record and its queues. Contexts of one collective call must be opened
// by one member — inside a SetupOnce build or an exchange's build — so
// that all members adopt the same records.
func (w *World) NewContext(ranks []int) *Context {
	cx := make([]Context, 1)
	w.InitContexts(cx, [][]int{ranks})
	return &cx[0]
}

// InitContexts is NewContext for a constructor that opens many contexts
// at once: ctxs is caller-provided zero storage, ctxs[i] is opened over
// tables[i], and the queues of all of them are cut from one slab. Under
// folding the executing members must lead a table and the table must
// repeat with their count, member i being member i-exec modulo the fold
// unit, hence member i mod exec (Context.queue relies on it); anything
// else panics with ErrFoldUnsafe.
func (w *World) InitContexts(ctxs []Context, tables [][]int) {
	n := 0
	for i := range ctxs {
		cx, ranks := &ctxs[i], tables[i]
		cx.ranks, cx.exec, cx.hop = ranks, len(ranks), sim.HopNet
		if u := w.foldUnit; u > 0 {
			cx.exec = 0
			for j, g := range ranks {
				if g < u {
					if j != cx.exec {
						// Per-rank setup storage is indexed by comm rank and as
						// long as the members that execute (SetupSlab).
						panic(fmt.Errorf("%w: communicator lists rank %d behind ranks outside the fold unit %d", ErrFoldUnsafe, g, u))
					}
					cx.exec++
				} else if e := cx.exec; e > 0 && (g-ranks[j-e])%u != 0 {
					panic(fmt.Errorf("%w: communicator member %d (rank %d) is not a replica of member %d under fold unit %d", ErrFoldUnsafe, j, g, j%e, u))
				}
			}
		}
		n += cx.exec
		// The innermost topology level holding every member gives the hop
		// class, and says whether they share a node (levels nest).
	levels:
		for l := 0; l < w.topo.NumLevels(); l++ {
			g := w.topo.GroupOf(l, ranks[0])
			for _, r := range ranks[1:] {
				if w.topo.GroupOf(l, r) != g {
					continue levels
				}
			}
			cx.hop, cx.oneNode = w.topo.LevelClass(l), l <= w.topo.NodeLevel()
			break
		}
	}
	queues := make([]rankQueue, n)
	w.ctxMu.Lock()
	for i := range ctxs {
		cx := &ctxs[i]
		cx.queues, queues = queues[:cx.exec:cx.exec], queues[cx.exec:]
		w.ctxs = append(w.ctxs, cx)
	}
	w.ctxMu.Unlock()
}

// retireSince drops the contexts opened since the list was n long —
// those of the Run that is ending — and marks them retired, so a handle
// kept past its Run is refused.
func (w *World) retireSince(n int) {
	w.ctxMu.Lock()
	tail := w.ctxs[n:]
	for _, cx := range tail {
		cx.state.Store(ctxRetired)
	}
	clear(tail)
	w.ctxs = w.ctxs[:n]
	w.ctxMu.Unlock()
}

// round is one rendezvous. Records are pooled (stragglers of round k may
// still be waking up while round k+1 fills, which is why rounds are
// records and not fields of the context); done is created lazily by the
// first member that has to wait and closed by whoever ends the round:
// the last arriver, or a poison walk, which sets err first.
type round struct {
	// members are the global ranks the round waits for: the
	// communicator's table, or the live set of Agree/Shrink. Borrowed,
	// never copied. It is what the death walk asks whether the round can
	// still complete, and whom the event engine wakes when it ends.
	members   []int
	max       sim.Time     // running max of the contributed clocks
	vals      []any        // contribution vector of a setup exchange, nil for clock fusion
	out       any          // what the completing member's build made of vals
	err       error        // poison: why the round can never complete
	remaining int          // arrivals still missing
	left      atomic.Int32 // members yet to read the result; the last recycles the record
	done      chan struct{}
}

var roundPool = sync.Pool{New: func() any { return new(round) }}

// meet is the rendezvous. The caller joins its communicator's current
// round (opening one when none is live) as one of n arrivals over
// members, folds clk into the round's max, stores val at idx of the
// contribution vector when idx >= 0, and blocks until the round ends.
// The member that completes the round runs build (if any) over the full
// vector before anyone is released, so "everyone contributes, one member
// derives, everyone adopts" is a single round.
//
// Abort and member death are re-checked under the context's lock. Both
// flags are published before their walk starts (World.Abort,
// World.killRank), so an arrival either sees the flag here or has joined
// a round the walk will still find: nobody parks in a round that cannot
// complete. A context whose Run has ended has no rounds left to join.
func (c *Comm) meet(members []int, n, idx int, clk sim.Time, val any, build func([]any) any) (sim.Time, []any, any) {
	p, w, cx := c.p, c.p.world, c.cx
	if err := cx.refusal(false); err != nil {
		panic(err)
	}
	cx.mu.Lock()
	if err := w.stranded(members); err != nil {
		cx.mu.Unlock()
		panic(err)
	}
	r := cx.cur
	if r == nil {
		r = roundPool.Get().(*round)
		r.members, r.max, r.remaining, r.done = members, clk, n, nil
		r.left.Store(int32(n))
		if idx >= 0 {
			r.vals = make([]any, n)
		}
		cx.cur = r
	} else if clk > r.max {
		r.max = clk
	}
	if idx >= 0 {
		r.vals[idx] = val
	}
	r.remaining--
	if r.remaining > 0 {
		if r.done == nil {
			r.done = make(chan struct{})
		}
		done := r.done
		cx.mu.Unlock()
		awaitClose(p, done, r)
	} else {
		if build != nil {
			// Built outside the lock with the round still current: a
			// build that panics unwinds this rank into Abort, whose walk
			// then finds the round and releases its waiters.
			cx.mu.Unlock()
			out := build(r.vals)
			cx.mu.Lock()
			r.out = out
		}
		if cx.cur == r { // else an abort poisoned it during the build
			cx.end(w, nil)
		}
		cx.mu.Unlock()
	}
	if r.err != nil {
		// A poisoned record is never recycled: stragglers may still be
		// waking through it. The world is damaged or aborted anyway.
		panic(r.err)
	}
	max, vals, out := r.max, r.vals, r.out
	if r.left.Add(-1) == 0 {
		r.members, r.vals, r.out = nil, nil, nil // the vector and the product escaped to the callers
		roundPool.Put(r)
	}
	return max, vals, out
}

// awaitClose is the wait of a rendezvous round's member: rank p blocks
// until done is closed, by the last arrival or a poison walk. The event
// engine polls, parks and re-checks on every wake; after an abort it
// receives directly, since the abort walk closes every live round.
func awaitClose(p *Proc, done <-chan struct{}, on *round) {
	w := p.world
	for w.evLive && !w.Aborted() {
		select {
		case <-done:
			return
		default:
		}
		w.ev.park(p.rank, on)
	}
	<-done
}

// end closes the context's current round, completed (err nil) or
// poisoned, and releases its waiters through the done channel they are
// parked on. The caller holds cx.mu.
func (cx *Context) end(w *World, err error) {
	r := cx.cur
	cx.cur = nil
	r.err = err
	if r.done != nil {
		close(r.done)
	}
	for _, g := range r.members {
		w.wake(g)
	}
}

// poison is the one walk behind abort and rank death, over every live
// context: queued records waiting on a rank hit picks get the sentinel
// at (Context.fail), and a live round whose table hit picks ends with
// err. A recovery round over the live set is not waiting on the dead
// rank, so a death walk leaves it alone. A context opened after the walk
// (which holds the list's lock) re-checks the published flags under its
// own locks (postSend, meet). wake is nil in Abort's walk, which may run
// outside the Run.
func (w *World) poison(wake *World, at sim.Time, err error, hit func(g int) bool) {
	w.ctxMu.Lock()
	defer w.ctxMu.Unlock()
	for _, cx := range w.ctxs {
		cx.fail(wake, at, hit)
		cx.mu.Lock()
		if cx.cur != nil && slices.ContainsFunc(cx.cur.members, hit) {
			cx.end(wake, err)
		}
		cx.mu.Unlock()
	}
}
