package coll

import (
	"fmt"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// TestComposerHandleSize pins a rank's Composer at two words, its
// communicator and the shared plan: anything else a rank keeps is
// shared state copied back into every element of the setup slab.
func TestComposerHandleSize(t *testing.T) {
	if got, want := unsafe.Sizeof(Composer{}), 2*unsafe.Sizeof(uintptr(0)); got != want {
		t.Errorf("Composer is %d bytes, want %d (a communicator and the shared plan)", got, want)
	}
}

// handleRef is one rank's expected handle on a communicator: its rank
// and the members' global ranks, or no handle when members is nil.
type handleRef struct {
	rank    int
	members []int
}

// composerRef is a brute-force composer geometry, built from
// sim.Topology.GroupOf and nothing of the composer's own tables: per
// comm rank, the tier and top handles, the group index per tier in
// leader order, and the slot.
type composerRef struct {
	tiers [][]handleRef // tier -> comm rank
	top   []handleRef
	group [][]int // tier -> comm rank
	slot  []int
}

// newComposerRef derives the reference for a communicator whose comm
// rank r is global rank members[r]. A rank's tier-t group is the
// level-t topology group holding it, led by its lowest comm rank; a
// rank takes part in tier t > 0 (and the top after the last tier) when
// it leads its group one tier down. Groups are ordered by their chain
// of leaders, outermost first, and slots by that chain down to tier 0
// and then by comm rank.
func newComposerRef(topo *sim.Topology, members, levels []int) *composerRef {
	n, depth := len(members), len(levels)
	id := func(t, r int) int { return topo.GroupOf(levels[t], members[r]) }
	leader := make([]map[int]int, depth) // tier -> group id -> lowest comm rank
	for t := range levels {
		leader[t] = map[int]int{}
		for r := n - 1; r >= 0; r-- {
			leader[t][id(t, r)] = r
		}
	}
	leads := func(t, r int) bool { return leader[t][id(t, r)] == r }
	chain := func(t, r int) []int { // leaders from the outermost tier down to t
		var c []int
		for u := depth - 1; u >= t; u-- {
			c = append(c, leader[u][id(u, r)])
		}
		return c
	}
	ref := &composerRef{
		tiers: make([][]handleRef, depth),
		top:   make([]handleRef, n),
		group: make([][]int, depth),
		slot:  make([]int, n),
	}
	for t := range levels {
		ref.tiers[t] = make([]handleRef, n)
		ref.group[t] = make([]int, n)
		var chains [][]int
		for r := 0; r < n; r++ {
			c := chain(t, r)
			if !slices.ContainsFunc(chains, func(o []int) bool { return slices.Equal(o, c) }) {
				chains = append(chains, c)
			}
		}
		slices.SortFunc(chains, slices.Compare)
		for r := 0; r < n; r++ {
			c := chain(t, r)
			ref.group[t][r] = slices.IndexFunc(chains, func(o []int) bool { return slices.Equal(o, c) })
			if t > 0 && !leads(t-1, r) {
				continue
			}
			h := handleRef{}
			for m := 0; m < n; m++ {
				if id(t, m) == id(t, r) && (t == 0 || leads(t-1, m)) {
					if m == r {
						h.rank = len(h.members)
					}
					h.members = append(h.members, members[m])
				}
			}
			ref.tiers[t][r] = h
		}
	}
	var outer []int // the outermost leaders, ascending comm rank
	for r := 0; r < n; r++ {
		if leads(depth-1, r) {
			outer = append(outer, r)
		}
	}
	for i, r := range outer {
		ref.top[r].rank = i
		for _, m := range outer {
			ref.top[r].members = append(ref.top[r].members, members[m])
		}
	}
	order := make([]int, n)
	for r := range order {
		order[r] = r
	}
	slices.SortFunc(order, func(a, b int) int {
		return slices.Compare(append(chain(0, a), a), append(chain(0, b), b))
	})
	for s, r := range order {
		ref.slot[r] = s
	}
	return ref
}

// checkHandle compares a composer handle with its reference.
func checkHandle(what string, got *mpi.Comm, want handleRef) error {
	switch {
	case (got == nil) != (want.members == nil):
		return fmt.Errorf("%s: has a handle = %v, want %v", what, got != nil, want.members != nil)
	case got == nil:
		return nil
	case got.Rank() != want.rank || got.Size() != len(want.members) || !slices.Equal(got.Ranks(), want.members):
		return fmt.Errorf("%s: rank %d of %v, want rank %d of %v", what, got.Rank(), got.Ranks(), want.rank, want.members)
	}
	return nil
}

// TestComposerHandlesDerived checks every handle and index a rank reads
// through its two-word Composer — Tier(t), Top(), MyGroup(t), SlotOf —
// against the brute-force reference, on every executing rank of the
// fig-micro world, Fig. 10's irregular machine, a three-level stack, a
// round-robin (non-SMP) communicator and a folded world.
func TestComposerHandlesDerived(t *testing.T) {
	fig10 := make([]int, 43)
	for i := range fig10 {
		fig10[i] = 24
	}
	fig10[42] = 16
	three := must(sim.NewHierTopology([]sim.LevelSpec{
		{Name: "socket", Sizes: []int{3, 1, 2, 2, 1, 3, 2}},
		{Name: "node", Sizes: []int{4, 5, 5}},
		{Name: "group", Sizes: []int{9, 5}},
	}))
	irregular := must(sim.NewHierTopology([]sim.LevelSpec{
		{Name: "socket", Sizes: []int{3, 1, 2, 2, 1, 3}},
		{Name: "node", Sizes: []int{4, 5, 3}},
	}))
	folded := sim.MustUniform(64, 16)
	unit := HierAllgatherFoldUnit(sim.HazelHenCray(), folded, 8, Tuning{})
	if unit == 0 {
		t.Fatal("the folded case's world does not fold")
	}
	cases := []struct {
		name       string
		topo       *sim.Topology
		levels     []string
		roundRobin bool
		opts       []mpi.Option
	}{
		{"64x24", sim.MustUniform(64, 24), []string{"node"}, false, nil},
		{"fig10_42x24+1x16", must(sim.NewTopology(fig10)), []string{"node"}, false, nil},
		{"three_level", three, []string{"socket", "node", "group"}, false, nil},
		{"round_robin", irregular, []string{"socket", "node"}, true, nil},
		{"folded_64x16", folded, []string{"node"}, false,
			[]mpi.Option{func(c *mpi.Config) { c.FoldUnit = unit }}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			n := tc.topo.Size()
			// members[r] is the global rank at comm rank r: the world
			// order, or the ranks dealt out one per node in turn.
			members := make([]int, n)
			for r := range members {
				members[r] = r
			}
			if tc.roundRobin {
				slices.SortStableFunc(members, func(a, b int) int {
					return localRank(tc.topo, a) - localRank(tc.topo, b)
				})
			}
			key := make([]int, n) // global rank -> comm rank
			for r, g := range members {
				key[g] = r
			}
			levels := make([]int, len(tc.levels))
			for i, name := range tc.levels {
				l, ok := tc.topo.LevelIndex(name)
				if !ok {
					t.Fatalf("no level %q", name)
				}
				levels[i] = l
			}
			ref := newComposerRef(tc.topo, members, levels)
			smp := true
			for r, s := range ref.slot {
				smp = smp && s == r
			}
			if smp == tc.roundRobin {
				t.Fatalf("reference slot order is SMP = %v on a round-robin = %v communicator", smp, tc.roundRobin)
			}

			w, err := mpi.NewWorld(sim.HazelHenCray(), tc.topo, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer w.Close()
			err = w.Run(func(p *mpi.Proc) error {
				c, err := p.CommWorld(), error(nil)
				if tc.roundRobin {
					if c, err = c.Split(0, key[p.Rank()]); err != nil {
						return err
					}
					if !slices.Equal(c.Ranks(), members) {
						return fmt.Errorf("round-robin communicator holds %v, want %v", c.Ranks(), members)
					}
				}
				k, err := NewComposer(c, levels)
				if err != nil {
					return err
				}
				me := c.Rank()
				at := func(what string) string { return fmt.Sprintf("comm rank %d: %s", me, what) }
				for tier := range levels {
					if err := checkHandle(at(fmt.Sprintf("Tier(%d)", tier)), k.Tier(tier), ref.tiers[tier][me]); err != nil {
						return err
					}
					if got, want := k.MyGroup(tier), ref.group[tier][me]; got != want {
						return fmt.Errorf("%s = %d, want %d", at(fmt.Sprintf("MyGroup(%d)", tier)), got, want)
					}
				}
				if err := checkHandle(at("Top()"), k.Top(), ref.top[me]); err != nil {
					return err
				}
				if me == 0 {
					for r := 0; r < n; r++ {
						if got, want := k.SlotOf(r), ref.slot[r]; got != want {
							return fmt.Errorf("SlotOf(%d) = %d, want %d", r, got, want)
						}
					}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

// localRank returns a global rank's position among the ranks of its
// node.
func localRank(topo *sim.Topology, g int) int {
	l := 0
	for r := 0; r < g; r++ {
		if topo.SameNode(r, g) {
			l++
		}
	}
	return l
}
