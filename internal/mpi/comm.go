package mpi

import (
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Undefined is the color value that opts a rank out of a Split —
// MPI_UNDEFINED. Split returns a nil *Comm for such ranks, mirroring
// MPI_COMM_NULL (the paper's Fig. 4 pseudo-code checks exactly this to
// distinguish leaders from children).
const Undefined = int(^uint(0) >> 1) // MaxInt

// Comm is a communicator handle local to one rank. Handles on different
// ranks that were created by the same collective call point at one
// Context (coord.go), which holds everything they share: the rank
// translation table, the facts derived from it, the message queues, the
// state and the control plane. The handle keeps what is this member's
// alone, and lives for the Run that built it.
type Comm struct {
	p     *Proc
	cx    *Context
	rank  int // this process's comm rank
	seq   int // how many SetupOnce slots this member has claimed (derive.go)
	sched int // sequence number for nonblocking schedule tag windows

	// collCfg carries the collective-tuning configuration attached to
	// this communicator (opaque here; internal/coll owns the concrete
	// type, which keeps the layering acyclic). Derived communicators
	// inherit it, so hybrid and workload layers see the tuning the
	// world or a parent communicator was configured with.
	collCfg any
}

// CommWorld returns this rank's handle on MPI_COMM_WORLD. The handle is
// a per-process singleton: SetupOnce slots are sequenced per
// communicator handle, so every call site must observe the same
// sequence counter.
func (p *Proc) CommWorld() *Comm {
	if p.cw.p == nil {
		p.cw = Comm{p: p, cx: p.world.worldCx, rank: p.rank, collCfg: p.world.collCfg}
	}
	return &p.cw
}

// Rank returns the calling process's rank within the communicator.
func (c *Comm) Rank() int { return c.rank }

// Size returns the number of ranks in the communicator.
func (c *Comm) Size() int { return len(c.cx.ranks) }

// Proc returns the owning process.
func (c *Comm) Proc() *Proc { return c.p }

// Ranks returns the comm-rank -> global-rank table (do not modify).
func (c *Comm) Ranks() []int { return c.cx.ranks }

// RanksHash is the fingerprint of the member table,
// sim.HashInts(sim.HashSeed, c.Ranks()). The table is immutable, so it
// is computed once per communicator context, by its first caller, and
// every handle over the context shares it.
func (c *Comm) RanksHash() uint64 {
	cx := c.cx
	if h := cx.ranksHash.Load(); h != 0 {
		return h
	}
	h := sim.HashInts(sim.HashSeed, cx.ranks)
	cx.ranksHash.Store(h)
	return h
}

// exchange performs an untimed allgather of one value per member: one
// round of the communicator's rendezvous (coord.go). It is the
// building block for communicator and window construction — the
// "one-off" operations whose cost the paper explicitly excludes from
// measurements (Sect. 4.1). build runs once over the full contribution
// vector, on whichever member completes the round, and every member
// receives its product.
//
// Under rank-symmetry folding an exchange can only complete when every
// member executes, so communicators spanning ranks outside the fold
// unit refuse loudly (ErrFoldUnsafe, recovered as the rank's error)
// instead of deadlocking: generic Split, SharePlan and window
// construction on such communicators are inherently unfoldable.
// Communicators wholly inside the unit — node and tier communicators
// of the hierarchical collectives — exchange normally.
func (c *Comm) exchange(val any, build func(vals []any) any) any {
	ranks := c.cx.ranks
	if c.cx.exec < len(ranks) {
		panic(fmt.Errorf("%w: exchange on a communicator spanning rank %d (fold unit %d)", ErrFoldUnsafe, ranks[c.cx.exec], c.p.world.foldUnit))
	}
	c.p.maybeFail()
	_, _, out := c.meet(ranks, len(ranks), c.rank, c.p.clock, val, build)
	return out
}

// SharePlan runs the "everyone contributes, one member computes,
// everyone shares" setup pattern used by communicator construction at
// scale: every member contributes val (an untimed allgather); the
// member that completes the rendezvous derives a plan from the full
// contribution vector, so build must not depend on which member runs
// it; every member receives the same plan to use read-only. A nil plan
// from build signals a validation failure and surfaces as an error on
// every member. SharePlan must be called collectively and in the same
// order by all members, like every MPI setup call.
func SharePlan[T any](c *Comm, val any, build func(vals []any) *T) (*T, error) {
	out := c.exchange(val, func(vals []any) any { return build(vals) })
	if plan := out.(*T); plan != nil {
		return plan, nil
	}
	return nil, fmt.Errorf("mpi: setup plan rejected by its builder")
}

// FuseClocks performs an untimed max-reduction of the members' virtual
// clocks. It is the repeatedly-invoked core of the shared-memory
// synchronization primitives (flag barriers, epoch counters): a
// vector-less round of the communicator's rendezvous (coord.go), on
// every size, both engines, folded worlds and failure configs. Like
// every collective, all members must call FuseClocks in the same order.
// The timed cost of the modeled synchronization is charged by the
// caller.
func (c *Comm) FuseClocks(t sim.Time) sim.Time {
	// Under folding only the class representatives execute, and every
	// replica's clock is (by construction) its representative's, so the
	// max over the representative members equals the max over all
	// members. The round just has to count representatives.
	n := c.cx.exec
	if n == 1 {
		return t
	}
	c.p.maybeFail()
	max, _, _ := c.meet(c.cx.ranks, n, -1, t, nil, nil)
	return max
}

type splitEntry struct {
	color, key, globalRank, commRank int
}

// splitPlan is the full partition of one Split call. One member
// computes it and every other member only performs two O(1) lookups.
// (The seed implementation had every rank rebuild and re-sort the whole
// partition, which dominated setup wall-clock time at Fig. 9 scale —
// 1536 ranks each doing O(n log n) work per Split.)
type splitPlan struct {
	groups []Context // one per color, ascending
	byComm []int32   // parent comm rank -> group index, -1 for Undefined
	rankIn []int32   // parent comm rank -> rank within the new group
}

// buildSplitPlan groups the exchanged entries by color (ordering each
// group by key, then parent rank — MPI_Comm_split) and opens one
// context per color in ascending color order, exactly the assignment
// order the per-rank implementation used.
func (w *World) buildSplitPlan(vals []any) *splitPlan {
	n := len(vals)
	entries := make([]splitEntry, 0, n)
	for _, v := range vals {
		if e := v.(splitEntry); e.color != Undefined {
			entries = append(entries, e)
		}
	}
	sort.Slice(entries, func(i, j int) bool {
		a, b := entries[i], entries[j]
		if a.color != b.color {
			return a.color < b.color
		}
		if a.key != b.key {
			return a.key < b.key
		}
		return a.commRank < b.commRank
	})

	plan := &splitPlan{byComm: make([]int32, n), rankIn: make([]int32, n)}
	for i := range plan.byComm {
		plan.byComm[i] = -1
	}
	var tables [][]int
	for i := 0; i < len(entries); {
		j := i
		for j < len(entries) && entries[j].color == entries[i].color {
			j++
		}
		ranks := make([]int, j-i)
		gi := int32(len(tables))
		for k := i; k < j; k++ {
			ranks[k-i] = entries[k].globalRank
			plan.byComm[entries[k].commRank] = gi
			plan.rankIn[entries[k].commRank] = int32(k - i)
		}
		tables = append(tables, ranks)
		i = j
	}
	plan.groups = make([]Context, len(tables))
	w.InitContexts(plan.groups, tables)
	return plan
}

// Split partitions the communicator by color, ordering each new group
// by (key, parent rank) — MPI_Comm_split. Ranks passing Undefined
// receive nil.
func (c *Comm) Split(color, key int) (*Comm, error) {
	// One member computes the whole partition (group tables and context
	// records, which must be identical across members); everyone else
	// just looks itself up.
	plan, err := SharePlan(c,
		splitEntry{color: color, key: key, globalRank: c.p.rank, commRank: c.rank},
		c.p.world.buildSplitPlan)
	if err != nil {
		return nil, err
	}

	gi := plan.byComm[c.rank]
	if gi < 0 {
		if color != Undefined {
			return nil, fmt.Errorf("mpi: rank %d missing from its own split group", c.p.rank)
		}
		return nil, nil
	}
	return c.NewGroupComm(&plan.groups[gi], int(plan.rankIn[c.rank])), nil
}

// CollConfig returns the collective-tuning configuration attached to
// this communicator handle (nil when unset). internal/coll owns the
// concrete type.
func (c *Comm) CollConfig() any { return c.collCfg }

// SetCollConfig attaches a collective-tuning configuration to this
// handle. Communicators split off afterwards inherit it. Like every
// property that influences collective algorithm choice, all members of
// a communicator must configure the same value, or collective calls
// mix algorithms and deadlock.
func (c *Comm) SetCollConfig(v any) { c.collCfg = v }

// HopClass returns the hop class that dominates traffic on this
// communicator: the class of the innermost topology level containing
// every member, HopNet when the members share no declared level. On a
// node-level-only topology this is exactly the historical
// single-node-means-shm / otherwise-net classification.
func (c *Comm) HopClass() sim.HopClass { return c.cx.hop }

// SplitLevel splits the communicator into one group per level-l
// topology group, the level-indexed generalization of
// MPI_Comm_split_type: every member lands in the communicator of its
// numa domain, socket, node or network group, ordered by parent rank.
//
// The partition is fully determined by the topology and the parent's
// rank table, so no exchange runs: one member derives it and opens the
// contexts (derive.go).
// The result is member-for-member identical to the generic
// Split(GroupOf(l, rank), rank).
func (c *Comm) SplitLevel(l int) (*Comm, error) {
	topo := c.p.world.topo
	if l < 0 || l >= topo.NumLevels() {
		return nil, fmt.Errorf("mpi: SplitLevel(%d) on a %d-level topology", l, topo.NumLevels())
	}
	return c.splitLevelDerived(l)
}

// SplitTypeShared splits the communicator into shared-memory groups, one
// per node — MPI_Comm_split_type(MPI_COMM_TYPE_SHARED). This is the
// first step of the paper's hierarchical communicator setup (Fig. 1a).
func (c *Comm) SplitTypeShared() (*Comm, error) {
	return c.SplitLevel(c.p.world.topo.NodeLevel())
}
