package coll

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// geomDump is the part of a composer geometry every composed and hybrid
// collective addresses buffers by: the level-sorted slot order and each
// tier's group tables.
type geomDump struct {
	SlotToRank []int      `json:"slot_to_rank"`
	SMP        bool       `json:"smp"`
	Tiers      []tierDump `json:"tiers"`
	TopRanks   []int      `json:"top_ranks"`
}

type tierDump struct {
	First   []int `json:"first"`
	Size    []int `json:"size"`
	ChildLo []int `json:"child_lo,omitempty"`
	ChildN  []int `json:"child_n,omitempty"`
}

// TestComposerGeometryGolden pins the derived geometry — slot order,
// tier firsts, sizes and child ranges, the top communicator — for one-
// to three-level stacks over regular and irregular topologies, with
// the communicator's members in SMP, reversed, round-robin and
// seeded-random order and as a random subset. The golden was generated
// while the slot order still came from sorting synthesized per-member
// leader chains; the direct derivation from the tier tables must
// reproduce it byte for byte.
func TestComposerGeometryGolden(t *testing.T) {
	const path = "testdata/geometry.golden.json"
	topos := []struct {
		name   string
		topo   *sim.Topology
		stacks [][]int
	}{
		{"flat[2 1 1 3]", must(sim.NewTopology([]int{2, 1, 1, 3})), [][]int{{0}}},
		{"2x2x2x2", sim.MustUniformHier(2, sim.LevelDim{Name: "socket", Arity: 2},
			sim.LevelDim{Name: "node", Arity: 2}, sim.LevelDim{Name: "group", Arity: 2}),
			[][]int{{0}, {1}, {0, 1}, {1, 2}, {0, 2}, {0, 1, 2}}},
		{"irregular12", must(sim.NewHierTopology([]sim.LevelSpec{
			{Name: "socket", Sizes: []int{3, 1, 2, 2, 1, 3}},
			{Name: "node", Sizes: []int{4, 5, 3}},
		})), [][]int{{0}, {1}, {0, 1}}},
	}
	lines := map[string]string{}
	for _, tc := range topos {
		n := tc.topo.Size()
		rng := rand.New(rand.NewSource(int64(20 + n)))
		smp := make([]int, n)
		reversed := make([]int, n)
		for r := range smp {
			smp[r], reversed[r] = r, n-1-r
		}
		// Round-robin: deal the ranks out node by node. A rank's place
		// on its node is the number of lower ranks sharing it.
		local := make([]int, n)
		onNode := map[int]int{}
		for r := range local {
			local[r] = onNode[tc.topo.NodeOf(r)]
			onNode[tc.topo.NodeOf(r)]++
		}
		var roundRobin []int
		for l := 0; len(roundRobin) < n; l++ {
			for r := 0; r < n; r++ {
				if local[r] == l {
					roundRobin = append(roundRobin, r)
				}
			}
		}
		random := rng.Perm(n)
		subset := rng.Perm(n)[:n*2/3]
		for _, m := range []struct {
			name    string
			members []int
		}{{"smp", smp}, {"reversed", reversed}, {"roundrobin", roundRobin}, {"random", random}, {"subset", subset}} {
			for _, levels := range tc.stacks {
				g := buildComposerGeom(tc.topo, m.members, levels)
				d := geomDump{SlotToRank: g.shape.slotToRank, SMP: g.shape.smp, TopRanks: g.topRanks}
				for s, r := range g.shape.slotToRank {
					if g.shape.rankToSlot[r] != s {
						t.Errorf("%s/%s/%v: rankToSlot is not the inverse of slotToRank at slot %d", tc.name, m.name, levels, s)
					}
				}
				for _, ts := range g.shape.tiers {
					d.Tiers = append(d.Tiers, tierDump{First: ts.first, Size: ts.size, ChildLo: ts.childLo, ChildN: ts.childN})
				}
				line, err := json.Marshal(d)
				if err != nil {
					t.Fatal(err)
				}
				lines[fmt.Sprintf("%s/%s/%v", tc.name, m.name, levels)] = string(line)
			}
		}
	}
	checkGolden(t, path, lines)
}

func must(topo *sim.Topology, err error) *sim.Topology {
	if err != nil {
		panic(err)
	}
	return topo
}
