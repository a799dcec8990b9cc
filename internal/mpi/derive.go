package mpi

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/sim"
)

// This file holds the exchange-free communicator-derivation machinery.
// Splits whose outcome is fully determined by world-global data — the
// topology and the parent communicator's rank table — do not need the
// contribute/build exchange of the generic Split: any member can
// compute the whole partition locally. SetupOnce shares exactly one
// such computation per collective call among the members.

// setupEntry is the once-guarded slot one SetupOnce call shares. left
// counts the members that have not arrived yet (under the context's
// lock); the last one takes the slot off the context, so setup plans
// don't accumulate on the world (the same hygiene the pooled rounds
// get).
type setupEntry struct {
	once sync.Once
	val  any
	err  error
	slab any // SetupSlab's []T
	left int
}

// setupSlot claims the slot of this member's next collective setup call
// on the communicator — the handle's seq counts them, and every member
// makes them in the same order, which MPI requires anyway — has exactly
// one member fill it, and retires it with the last executing member to
// arrive. Members pass a context's calls in order, so the slot all of
// them have reached is the oldest live one.
func (c *Comm) setupSlot(fill func(e *setupEntry)) (*setupEntry, error) {
	cx := c.cx
	if err := cx.refusal(false); err != nil {
		return nil, err
	}
	cx.mu.Lock()
	k := c.seq - cx.base // this call's place among the live slots
	c.seq++
	if k == len(cx.slots.items)-cx.slots.head {
		cx.slots.push(&setupEntry{left: cx.exec})
	}
	e := cx.slots.items[cx.slots.head+k]
	if e.left--; e.left == 0 {
		cx.slots.remove(cx.slots.head) // k is 0, see above
		cx.base++
	}
	cx.mu.Unlock()
	e.once.Do(func() { fill(e) })
	return e, nil
}

// SetupOnce runs build exactly once per collective call on the
// communicator and hands the result to every member — the local,
// exchange-free analogue of SharePlan for plans derivable from
// world-global data (topology, rank tables). Like SharePlan it must be
// called collectively and in the same order by all members; unlike it,
// it performs no rendezvous: members that arrive after the build simply
// read the shared slot and proceed.
func SetupOnce(c *Comm, build func() (any, error)) (any, error) {
	e, err := c.setupSlot(func(e *setupEntry) { e.val, e.err = build() })
	if err != nil {
		return nil, err
	}
	return e.val, e.err
}

// SetupSlab is SetupOnce for a constructor of per-rank handles: the
// member that runs build (nil when the handles share no plan) also cuts
// one []T for the whole call, and every member gets the element at its
// comm rank beside the plan — one allocation per call, not one per
// rank. Elements start zero, are written by their rank alone and live
// as long as any sibling does. The slab is ExecSpan long: an element
// per rank that executes, not per member of the communicator.
func SetupSlab[T any](c *Comm, build func() (any, error)) (*T, any, error) {
	e, err := c.setupSlot(func(e *setupEntry) {
		if build != nil {
			e.val, e.err = build()
		}
		e.slab = make([]T, c.ExecSpan())
	})
	if err != nil {
		return nil, nil, err
	}
	return &e.slab.([]T)[c.rank], e.val, e.err
}

// ExecSpan returns how many members of the communicator execute, which
// under rank-symmetry folding are its leading comm ranks: Size(), or
// those inside the fold unit (64 of a folded 65,536).
func (c *Comm) ExecSpan() int { return c.cx.exec }

// NewGroupComm materializes this member's handle on a derived
// communicator whose shape was computed deterministically by every
// member (through SetupOnce): cx from NewContext, rank this member's
// position in its table. The new handle inherits the parent's collective
// tuning.
func (c *Comm) NewGroupComm(cx *Context, rank int) *Comm {
	return c.InitGroupComm(new(Comm), cx, rank)
}

// InitGroupComm is NewGroupComm into caller-provided storage: bulk
// constructors (the composer materializes one to a few handles per rank
// per call) cut their handles from one arena instead of allocating each.
// dst must be written by exactly one rank.
func (c *Comm) InitGroupComm(dst *Comm, cx *Context, rank int) *Comm {
	*dst = Comm{p: c.p, cx: cx, rank: rank, collCfg: c.collCfg}
	return dst
}

// levelShape is one SplitLevel call's partition: the per-group member
// tables and lookup vectors, and the contexts the call opened over them.
type levelShape struct {
	groups [][]int // group -> member global ranks, parent-comm-rank order
	byComm []int32 // parent comm rank -> group index
	rankIn []int32 // parent comm rank -> rank within its group
	ctxs   []Context
}

// buildLevelShape derives the partition of members by their level-l
// topology group: groups in ascending group-id order (the order the
// generic Split's color sort produced), members within a group in
// parent-comm-rank order (the key=rank convention).
func buildLevelShape(topo *sim.Topology, members []int, level int) *levelShape {
	n := len(members)
	s := &levelShape{byComm: make([]int32, n), rankIn: make([]int32, n)}
	// Dense remap of the (sorted) distinct group ids. Group ids of
	// consecutive members are non-decreasing under SMP placement, but
	// arbitrary parent memberships are allowed, so count per id first.
	counts := make(map[int]int, 16)
	for _, g := range members {
		counts[topo.GroupOf(level, g)]++
	}
	ids := make([]int, 0, len(counts))
	for id := range counts {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	idx := make(map[int]int32, len(ids))
	s.groups = make([][]int, len(ids))
	for gi, id := range ids {
		idx[id] = int32(gi)
		s.groups[gi] = make([]int, 0, counts[id])
	}
	for r, g := range members {
		gi := idx[topo.GroupOf(level, g)]
		s.byComm[r] = gi
		s.rankIn[r] = int32(len(s.groups[gi]))
		s.groups[gi] = append(s.groups[gi], g)
	}
	return s
}

// splitLevelDerived is the exchange-free SplitLevel: whichever member
// arrives first derives the partition and opens its contexts, and every
// other member only performs O(1) lookups. Each collective call yields
// a fresh plan (fresh contexts), exactly like the exchange-based Split
// did. The partition is not cached across worlds: the call's one
// non-test site is examples/halo's single SplitTypeShared.
func (c *Comm) splitLevelDerived(l int) (*Comm, error) {
	w := c.p.world
	v, err := SetupOnce(c, func() (any, error) {
		s := buildLevelShape(w.topo, c.cx.ranks, l)
		s.ctxs = make([]Context, len(s.groups))
		w.InitContexts(s.ctxs, s.groups)
		return s, nil
	})
	if err != nil {
		return nil, err
	}
	s := v.(*levelShape)
	gi := s.byComm[c.rank]
	if int(s.rankIn[c.rank]) >= len(s.groups[gi]) {
		return nil, fmt.Errorf("mpi: rank %d missing from its own level-%d group", c.p.rank, l)
	}
	return c.NewGroupComm(&s.ctxs[gi], int(s.rankIn[c.rank])), nil
}
