package mpi

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// A Context is one communicator as the runtime knows it: the record
// every member's handle points at from construction, so no path ever
// looks a context up. It carries the member table with the facts that
// depend on nothing else, the revoked flag, and the untimed control
// plane: one rendezvous, whose rounds serve both clock fusion
// (FuseClocks, the on-node synchronisation on the hot path, Sect. 6)
// and setup exchanges (generic Split, window allocation, Agree/Shrink:
// the one-offs the paper keeps out of every measurement, Sect. 4.1),
// and the slots of the exchange-free setup calls (SetupOnce, derive.go).
// Every member calls the collectives of a communicator in the same
// order and each rendezvous blocks until its round ends, so a context
// has at most one round collecting arrivals and rounds need no key.
//
// Who writes what: InitContext fills id, ranks, exec, hop and oneNode
// before any handle exists, and nobody writes them again; revoked is
// set once, by Revoke, before its matcher walk; cur, slots and base
// are only touched under mu. The matcher still keys its per-rank queues
// by id: a rank's shard holds the queues of the two to four contexts
// that rank belongs to, and that table is the rank's, not the context's.
//
// Contexts are not sharded and exchanges have no structure of their
// own: counted per workload, setup exchanges run 0 times in fig-micro,
// serve-* and every cmd/perf sweep and at most 13,824 times anywhere
// (cmd/ablations, 192-rank worlds), while FuseClocks, 9,216 calls per
// fig-micro op, only ever contends inside one node communicator
// (DESIGN.md, "Communicator contexts").
type Context struct {
	id    int   // the matcher's key: the context's place in World.ctxs
	ranks []int // comm rank -> global rank (shared, read-only)

	// The facts of the member table. exec is the one count of members
	// that execute — all of them, or under rank-symmetry folding those
	// inside the fold unit — behind ExecSpan, FuseClocks' round size and
	// the slot countdown alike.
	exec    int
	hop     sim.HopClass // see Comm.HopClass
	oneNode bool         // every member lives on one node

	revoked atomic.Bool

	mu    sync.Mutex
	cur   *round            // the round still collecting arrivals (or being built), nil between rounds
	slots fifo[*setupEntry] // live setup slots, oldest first: calls base, base+1, ...
	base  int
}

// NewContext opens a communicator context over a member table (comm
// rank -> global rank, shared read-only from here on). Contexts of one
// collective call must be opened by one member — inside a SetupOnce
// build or an exchange's build — so that all members adopt the same
// records.
func (w *World) NewContext(ranks []int) *Context { return w.InitContext(new(Context), ranks) }

// InitContext is NewContext into caller-provided zero storage: a
// constructor that opens many contexts cuts them from one slab.
func (w *World) InitContext(cx *Context, ranks []int) *Context {
	cx.ranks, cx.exec, cx.hop = ranks, len(ranks), sim.HopNet
	if u := w.foldUnit; u > 0 {
		cx.exec = 0
		for i, g := range ranks {
			if g >= u {
				continue
			}
			if i != cx.exec {
				// Per-rank setup storage is indexed by comm rank and as
				// long as the members that execute (SetupSlab).
				panic(fmt.Errorf("%w: communicator lists rank %d behind ranks outside the fold unit %d", ErrFoldUnsafe, g, u))
			}
			cx.exec++
		}
	}
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
	// The list is what the poison walks pass over (failRounds); its lock
	// is taken here and there and nowhere else.
	w.ctxMu.Lock()
	cx.id = len(w.ctxs)
	w.ctxs = append(w.ctxs, cx)
	w.ctxMu.Unlock()
	return cx
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
// complete.
func (c *Comm) meet(members []int, n, idx int, clk sim.Time, val any, build func([]any) any) (sim.Time, []any, any) {
	p, w, cx := c.p, c.p.world, c.cx
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
		await(p, done)
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

// failRounds poisons the live round of every context whose member
// table hit picks: its waiters wake and panic with err. Rounds that
// already ended are left alone (their stragglers only read the finished
// result), and so is a recovery round over the live set when a death
// walk asks for the dead rank: the round's own table says it is not
// waiting for it. A context opened after the walk read the list needs
// no ordering against it: what the walks publish is re-checked under
// the context's own lock (see meet). wake is nil in Abort's walk, like
// matcher.fail's.
func (w *World) failRounds(wake *World, err error, hit func(members []int) bool) {
	w.ctxMu.Lock()
	all := w.ctxs
	w.ctxMu.Unlock()
	for _, cx := range all {
		cx.mu.Lock()
		if cx.cur != nil && hit(cx.cur.members) {
			cx.end(wake, err)
		}
		cx.mu.Unlock()
	}
}
