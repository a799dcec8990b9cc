package coll

import (
	"sort"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// The composer geometry — the leader-tree slot order plus every tier
// communicator's membership table — is fully determined by (topology
// structure, comm membership, level stack). The seed derived it per
// world through a chain of Splits and a rank-0-published plan, which
// dominated setup cost at Fig. 9 scale; sweeps additionally rebuild
// worlds of the same shape over and over. composerGeomFor therefore
// computes the geometry locally (no exchanges at all) and caches it
// across worlds, keyed by content with full verification on hit, so a
// rebuilt world of a known shape reuses the tables outright.

// composerGeom is the immutable cross-world geometry of one composer:
// shared read-only by every rank of every world with this shape.
type composerGeom struct {
	topo    *sim.Topology // first publisher's topology (structural verify)
	members []int         // the comm rank table of the latest hit (exact key verify; immutable, see mpi.Comm.Ranks)
	levels  []int

	shape     *compShape
	tierRanks [][][]int // tier -> group -> member global ranks
	topRanks  []int     // top communicator's global ranks
	tierGroup [][]int32 // tier -> comm rank -> tier group index (-1 non-member)
	tierRank  [][]int32 // tier -> comm rank -> rank within tier comm (-1)
	topRank   []int32   // comm rank -> rank within top comm (-1)
	handleOff []int32   // comm rank -> first slot in the per-plan Comm arena; [n] is the total
}

// matches verifies a cache hit. A table is compared by its backing
// array before its content: a pooled world composes over its world table
// again and again, so a hit walks no member. A hit on equal content
// re-anchors the geometry to the table it was handed, the latest
// world's, so that world's next hit compares arrays only. The cache
// calls matches under its lock, and nothing else reads members.
func (g *composerGeom) matches(topo *sim.Topology, members, levels []int) bool {
	if len(g.members) != len(members) || len(g.levels) != len(levels) || !g.topo.EqualStructure(topo) {
		return false
	}
	for i, l := range levels {
		if g.levels[i] != l {
			return false
		}
	}
	if len(members) == 0 || &g.members[0] == &members[0] {
		return true
	}
	for i, m := range members {
		if g.members[i] != m {
			return false
		}
	}
	g.members = members
	return true
}

var composerGeomCache = sim.NewShapeCache[*composerGeom](256)

// composerGeomFor returns the cached geometry for (topo, members,
// levels), building it on miss; membersHash is the table's fingerprint
// (mpi.Comm.RanksHash), which a communicator computes once. Callers
// reach it once per (world, composer call) through mpi.SetupSlab, and a
// world's second hit on a geometry walks no member (matches).
func composerGeomFor(topo *sim.Topology, members []int, membersHash uint64, levels []int) (*composerGeom, error) {
	h := sim.HashInts(topo.Fingerprint()^membersHash, levels)
	return composerGeomCache.GetOrBuild(h,
		func(g *composerGeom) bool { return g.matches(topo, members, levels) },
		func() (*composerGeom, error) { return buildComposerGeom(topo, members, levels), nil })
}

// buildComposerGeom derives the full leader-tree geometry locally,
// reproducing exactly what the seed's Split chain produced:
//
//   - tier-t groups in ascending topology-group-id order (the color
//     sort of Split), members within a group in root-comm-rank order
//     (the key convention);
//   - tier t>0 members are the leaders (first member) of the tier-(t-1)
//     groups; the top communicator joins the outermost leaders in
//     ascending comm-rank order;
//   - the slot order and group tables follow from those tables alone
//     (buildCompShape), so composed collectives stay op-for-op
//     identical.
func buildComposerGeom(topo *sim.Topology, members, levels []int) *composerGeom {
	n := len(members)
	tiers := len(levels)
	g := &composerGeom{
		topo:      topo,
		members:   members,
		levels:    append([]int(nil), levels...),
		tierRanks: make([][][]int, tiers),
		tierGroup: make([][]int32, tiers),
		tierRank:  make([][]int32, tiers),
	}

	// parts: the comm ranks participating at the current tier, in
	// ascending comm-rank order (everyone at tier 0, leaders above).
	// groups[t][g]: tier-t group g's members as comm ranks.
	groups := make([][][]int, tiers)
	parts := make([]int, n)
	for r := range parts {
		parts[r] = r
	}
	for t := 0; t < tiers; t++ {
		g.tierGroup[t] = make([]int32, n)
		g.tierRank[t] = make([]int32, n)
		for r := range g.tierGroup[t] {
			g.tierGroup[t][r] = -1
			g.tierRank[t][r] = -1
		}
		// Partition the participants by their level-l group, groups in
		// ascending group-id order, members in comm-rank order.
		byID := map[int][]int{}
		ids := []int{}
		for _, r := range parts {
			id := topo.GroupOf(levels[t], members[r])
			if _, seen := byID[id]; !seen {
				ids = append(ids, id)
			}
			byID[id] = append(byID[id], r)
		}
		sort.Ints(ids)
		g.tierRanks[t] = make([][]int, len(ids))
		groups[t] = make([][]int, len(ids))
		leaders := make([]int, 0, len(ids))
		for gi, id := range ids {
			grp := byID[id]
			groups[t][gi] = grp
			table := make([]int, len(grp))
			for i, r := range grp {
				table[i] = members[r]
				g.tierGroup[t][r] = int32(gi)
				g.tierRank[t][r] = int32(i)
			}
			g.tierRanks[t][gi] = table
			leaders = append(leaders, grp[0])
		}
		sort.Ints(leaders)
		parts = leaders
	}

	// Top communicator: the outermost leaders, ascending comm rank.
	g.topRank = make([]int32, n)
	for r := range g.topRank {
		g.topRank[r] = -1
	}
	g.topRanks = make([]int, len(parts))
	for i, r := range parts {
		g.topRanks[i] = members[r]
		g.topRank[r] = int32(i)
	}

	g.shape = buildCompShape(n, groups, g.tierGroup, parts)

	// Arena layout for the per-plan Comm handles: each rank owns a
	// contiguous run of slots, one per communicator it belongs to.
	g.handleOff = make([]int32, n+1)
	off := int32(0)
	for r := 0; r < n; r++ {
		g.handleOff[r] = off
		for t := 0; t < tiers; t++ {
			if g.tierGroup[t][r] >= 0 {
				off++
			}
		}
		if g.topRank[r] >= 0 {
			off++
		}
	}
	g.handleOff[n] = off
	return g
}

// composerPlan is the per-world completion of a cached geometry: the
// shared tables plus the contexts this world opened over them, cut as
// one slab with their queues cut as one more (mpi.InitContexts), and
// every executing rank's tier handles. One plan is built per composer
// call (via mpi.SetupSlab) and shared by all members, whose Composers
// read everything but their communicator from it.
type composerPlan struct {
	geom    *composerGeom
	tierOff []int         // tier -> its first record in ctxs; group g's is tierOff[t]+g
	ctxs    []mpi.Context // the tiers' groups that have an executing member, then the top
	arena   []mpi.Comm    // per-rank tier handles then the top's, laid out by geom.handleOff
}
