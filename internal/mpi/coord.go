package mpi

import (
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// The coordinator is the untimed rendezvous of the control plane: one
// cell per communicator context, whose rounds serve both clock fusion
// (FuseClocks, the on-node synchronisation on the hot path, Sect. 6)
// and setup exchanges (generic Split, window allocation, Agree/Shrink:
// the one-offs the paper keeps out of every measurement, Sect. 4.1).
// Every member calls the collectives of a communicator in the same
// order and each call blocks until its round ends, so a cell has at
// most one round collecting arrivals and rounds need no key.
//
// Cells are not sharded and exchanges have no structure of their own:
// counted per workload, setup exchanges run 0 times in fig-micro,
// serve-* and every cmd/perf sweep and at most 13,824 times anywhere
// (cmd/ablations, 192-rank worlds), while FuseClocks, 9,216 calls per
// fig-micro op, only ever contends inside one node communicator
// (DESIGN.md, "One rendezvous cell").
type coordinator struct {
	cells sync.Map // ctx int -> *cell
}

// cell returns the rendezvous cell of a communicator context, creating
// it on first use. Creation needs no ordering against the poison walks:
// what they publish is re-checked under the cell's own lock (see meet).
func (co *coordinator) cell(ctx int) *cell {
	if v, ok := co.cells.Load(ctx); ok {
		return v.(*cell)
	}
	v, _ := co.cells.LoadOrStore(ctx, new(cell))
	return v.(*cell)
}

type cell struct {
	mu  sync.Mutex
	cur *round // the round still collecting arrivals (or being built), nil between rounds
}

// round is one rendezvous. Records are pooled (stragglers of round k may
// still be waking up while round k+1 fills, which is why rounds are
// records and not fields of the cell); done is created lazily by the
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
// Abort and member death are re-checked under the cell lock. Both flags
// are published before their walk starts (World.Abort, World.killRank),
// so an arrival either sees the flag here or has joined a round the walk
// will still find: nobody parks in a round that cannot complete.
func (c *Comm) meet(members []int, n, idx int, clk sim.Time, val any, build func([]any) any) (sim.Time, []any, any) {
	p, w := c.p, c.p.world
	cl := c.cell
	if cl == nil {
		cl = w.coord.cell(c.ctx)
		c.cell = cl
	}
	cl.mu.Lock()
	if err := w.stranded(members); err != nil {
		cl.mu.Unlock()
		panic(err)
	}
	r := cl.cur
	if r == nil {
		r = roundPool.Get().(*round)
		r.members, r.max, r.remaining, r.done = members, clk, n, nil
		r.left.Store(int32(n))
		if idx >= 0 {
			r.vals = make([]any, n)
		}
		cl.cur = r
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
		cl.mu.Unlock()
		await(p, done)
	} else {
		if build != nil {
			// Built outside the lock with the round still current: a
			// build that panics unwinds this rank into Abort, whose walk
			// then finds the round and releases its waiters.
			cl.mu.Unlock()
			out := build(r.vals)
			cl.mu.Lock()
			r.out = out
		}
		if cl.cur == r { // else an abort poisoned it during the build
			cl.end(w, nil)
		}
		cl.mu.Unlock()
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

// end closes the cell's current round, completed (err nil) or poisoned,
// and releases its waiters through the done channel they are parked on.
// The caller holds cl.mu.
func (cl *cell) end(w *World, err error) {
	r := cl.cur
	cl.cur = nil
	r.err = err
	if r.done != nil {
		close(r.done)
	}
	for _, g := range r.members {
		w.wake(g)
	}
}

// fail poisons the live round of every cell whose member table hit
// picks: its waiters wake and panic with err. Rounds that already ended
// are left alone (their stragglers only read the finished result), and
// so is a recovery round over the live set when a death walk asks for
// the dead rank: the round's own table says it is not waiting for it.
func (co *coordinator) fail(w *World, err error, hit func(members []int) bool) {
	co.cells.Range(func(_, v any) bool {
		cl := v.(*cell)
		cl.mu.Lock()
		if cl.cur != nil && hit(cl.cur.members) {
			cl.end(w, err)
		}
		cl.mu.Unlock()
		return true
	})
}
