package mpi

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
)

// This file holds the exchange-free communicator-derivation machinery.
// Splits whose outcome is fully determined by world-global data — the
// topology and the parent communicator's rank table — do not need the
// contribute/build exchange of the generic Split: any member can
// compute the whole partition locally. SetupOnce shares exactly one
// such computation per collective call among the members, and the
// expensive membership tables are additionally cached across worlds
// (sweeps rebuild worlds of the same shape thousands of times), so a
// repeated-world benchmark re-derives nothing.

// setupKey identifies one collective setup call-site instance on a
// communicator: the context plus the per-handle coordination sequence
// number every member advances identically.
type setupKey struct{ ctx, seq int }

// setupEntry is the once-guarded slot one SetupOnce call shares. left
// counts the members that have not fetched the result yet; the last
// one deletes the slot, so setup plans don't accumulate on the world
// (the same hygiene the coordinator's pooled rounds get).
type setupEntry struct {
	once sync.Once
	val  any
	err  error
	slab any // SetupSlab's []T
	left atomic.Int32
}

// setupSlot claims the slot of this member's next collective setup
// call, has exactly one member fill it, and retires it behind the last
// member to arrive.
func (c *Comm) setupSlot(fill func(e *setupEntry)) *setupEntry {
	key := setupKey{ctx: c.ctx, seq: c.nextSeq()}
	w := c.p.world
	v, ok := w.setupSlots.Load(key)
	if !ok {
		e := &setupEntry{}
		e.left.Store(int32(len(c.ranks)))
		v, _ = w.setupSlots.LoadOrStore(key, e)
	}
	e := v.(*setupEntry)
	e.once.Do(func() { fill(e) })
	if e.left.Add(-1) == 0 {
		w.setupSlots.Delete(key)
	}
	return e
}

// SetupOnce runs build exactly once per collective call on the
// communicator and hands the result to every member — the local,
// exchange-free analogue of SharePlan for plans derivable from
// world-global data (topology, rank tables). Like SharePlan it must be
// called collectively and in the same order by all members; unlike it,
// it performs no rendezvous: members that arrive after the build simply
// read the shared slot and proceed, and the last arrival retires the
// slot.
func SetupOnce(c *Comm, build func() (any, error)) (any, error) {
	e := c.setupSlot(func(e *setupEntry) { e.val, e.err = build() })
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
	e := c.setupSlot(func(e *setupEntry) {
		if build != nil {
			e.val, e.err = build()
		}
		e.slab = make([]T, c.ExecSpan())
	})
	return &e.slab.([]T)[c.rank], e.val, e.err
}

// ExecSpan returns how many leading comm ranks cover every member that
// executes: Size(), or under rank-symmetry folding the ranks up to the
// last one inside the fold unit (64 of a folded 65,536).
func (c *Comm) ExecSpan() int {
	n := len(c.ranks)
	if u := c.p.world.foldUnit; u > 0 {
		for n > 0 && c.ranks[n-1] >= u {
			n--
		}
	}
	return n
}

// NewContext issues a fresh communication context id. It exists for
// runtime-internal derived-communicator construction (the composer's
// tier communicators); the ids must be allocated inside a SetupOnce
// build so all members adopt the same values.
func (w *World) NewContext() int { return w.newContext() }

// NewGroupComm materializes this member's handle on a derived
// communicator whose shape was computed deterministically by every
// member (through SetupOnce): ctx from NewContext, ranks the shared
// read-only comm-rank -> global-rank table, rank this member's position
// in it. The new handle inherits the parent's collective tuning, and
// this rank's receive-side match queue for the context is preallocated.
func (c *Comm) NewGroupComm(ctx int, ranks []int, rank int) *Comm {
	return c.InitGroupComm(new(Comm), ctx, ranks, rank)
}

// InitGroupComm is NewGroupComm into caller-provided storage: bulk
// constructors (the composer materializes one to a few handles per rank
// per call) cut their handles from one arena instead of allocating each.
// dst must be written by exactly one rank.
func (c *Comm) InitGroupComm(dst *Comm, ctx int, ranks []int, rank int) *Comm {
	c.p.world.match.reserve(ctx, c.p.rank)
	*dst = Comm{p: c.p, ctx: ctx, ranks: ranks, rank: rank, collCfg: c.collCfg}
	return dst
}

// levelShape is the world-independent part of a SplitLevel partition:
// the per-group member tables and lookup vectors, everything except the
// per-world context ids. Shapes are immutable and shared — across the
// ranks of one world and across worlds of the same shape.
type levelShape struct {
	topo    *sim.Topology // first publisher's topology (structural verify)
	members []int         // parent rank-table snapshot (exact key verify)
	level   int
	groups  [][]int // group -> member global ranks, parent-comm-rank order
	byComm  []int32 // parent comm rank -> group index
	rankIn  []int32 // parent comm rank -> rank within its group
}

// matches reports whether a cached shape is exactly the requested one.
// Fingerprints only pick the bucket; membership is verified in full, so
// a hash collision can never hand out a wrong geometry.
func (s *levelShape) matches(topo *sim.Topology, members []int, level int) bool {
	if s.level != level || len(s.members) != len(members) || !s.topo.EqualStructure(topo) {
		return false
	}
	for i, m := range members {
		if s.members[i] != m {
			return false
		}
	}
	return true
}

// levelShapeCache is the cross-world shape store, hashed by (topology,
// membership, level) fingerprint with full verification on hit
// (sim.ShapeCache: bounded, drop-on-overflow).
var levelShapeCache = sim.NewShapeCache[*levelShape](256)

// levelShapeFor returns the cached shape for (topo, members, level),
// building and inserting it on miss. Called once per (world, parent
// context, level) — the per-call O(members) verification never lands on
// the per-rank path.
func levelShapeFor(topo *sim.Topology, members []int, level int) *levelShape {
	h := topo.Fingerprint() ^ sim.HashInts(sim.HashSeed, members) ^ (uint64(level)+1)*0x9e3779b97f4a7c15
	s, _ := levelShapeCache.GetOrBuild(h,
		func(s *levelShape) bool { return s.matches(topo, members, level) },
		func() (*levelShape, error) { return buildLevelShape(topo, members, level), nil })
	return s
}

// buildLevelShape derives the partition of members by their level-l
// topology group: groups in ascending group-id order (the order the
// generic Split's color sort produced), members within a group in
// parent-comm-rank order (the key=rank convention).
func buildLevelShape(topo *sim.Topology, members []int, level int) *levelShape {
	n := len(members)
	s := &levelShape{
		topo:    topo,
		members: append([]int(nil), members...),
		level:   level,
		byComm:  make([]int32, n),
		rankIn:  make([]int32, n),
	}
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

// levelPlan is the per-world completion of a cached shape: the shared
// shape plus the context ids this world assigned to its groups.
type levelPlan struct {
	shape *levelShape
	ctxs  []int
}

// splitLevelDerived is the exchange-free SplitLevel: the shape comes
// from the cross-world cache, the context ids are assigned by whichever
// member builds the per-call plan first, and every other member only
// performs O(1) lookups. Each collective call yields a fresh plan
// (fresh contexts), exactly like the exchange-based Split did.
func (c *Comm) splitLevelDerived(l int) (*Comm, error) {
	v, err := SetupOnce(c, func() (any, error) {
		shape := levelShapeFor(c.p.world.topo, c.ranks, l)
		ctxs := make([]int, len(shape.groups))
		for g := range ctxs {
			ctxs[g] = c.p.world.newContext()
		}
		return &levelPlan{shape: shape, ctxs: ctxs}, nil
	})
	if err != nil {
		return nil, err
	}
	plan := v.(*levelPlan)
	gi := plan.shape.byComm[c.rank]
	if int(plan.shape.rankIn[c.rank]) >= len(plan.shape.groups[gi]) {
		return nil, fmt.Errorf("mpi: rank %d missing from its own level-%d group", c.p.rank, l)
	}
	return c.NewGroupComm(plan.ctxs[gi], plan.shape.groups[gi], int(plan.shape.rankIn[c.rank])), nil
}
