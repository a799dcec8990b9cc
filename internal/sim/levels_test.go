package sim

import "testing"

func TestHierTopologyShape(t *testing.T) {
	// 2 groups ⊃ 2 nodes each ⊃ 2 sockets each ⊃ 3 ranks: 24 ranks.
	topo, err := UniformHier(3,
		LevelDim{Name: "socket", Arity: 2},
		LevelDim{Name: "node", Arity: 2},
		LevelDim{Name: "group", Arity: 2})
	if err != nil {
		t.Fatal(err)
	}
	if topo.Size() != 24 {
		t.Fatalf("size = %d, want 24", topo.Size())
	}
	if topo.NumLevels() != 3 {
		t.Fatalf("levels = %d, want 3", topo.NumLevels())
	}
	if topo.String() != "4x6 (socket⊂node⊂group)" {
		t.Fatalf("shape = %s, want 4 nodes of 6", topo)
	}
	if l, ok := topo.LevelIndex("socket"); !ok || l != 0 {
		t.Fatalf("socket level = %d, %v", l, ok)
	}
	if topo.NodeLevel() != 1 {
		t.Fatalf("node level = %d, want 1", topo.NodeLevel())
	}
	// Rank 7: socket 2, node 1, group 0.
	if g := topo.GroupOf(0, 7); g != 2 {
		t.Errorf("rank 7 socket = %d, want 2", g)
	}
	if topo.NodeOf(7) != 1 || topo.GroupOf(2, 7) != 0 {
		t.Errorf("rank 7 node/group = %d/%d, want 1/0", topo.NodeOf(7), topo.GroupOf(2, 7))
	}
}

func TestHierTopologyHopClasses(t *testing.T) {
	topo, err := UniformHier(2,
		LevelDim{Name: "socket", Arity: 2},
		LevelDim{Name: "node", Arity: 2},
		LevelDim{Name: "group", Arity: 2})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		a, b int
		want HopClass
	}{
		{0, 0, HopSelf},
		{0, 1, HopSocket}, // same socket
		{0, 2, HopShm},    // same node, different socket
		{0, 4, HopGroup},  // same group, different node
		{0, 8, HopNet},    // different group
	}
	for _, tc := range cases {
		if got := topo.Hop(tc.a, tc.b); got != tc.want {
			t.Errorf("Hop(%d,%d) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
	}
	if !topo.SameNode(0, 2) || topo.SameNode(0, 4) {
		t.Error("SameNode misclassifies node boundaries")
	}
}

func TestHierTopologyIrregular(t *testing.T) {
	// Irregular at both levels: sockets of 3,1 on node 0 and 2,2,1 on
	// node 1 — single-rank groups included.
	topo, err := NewHierTopology([]LevelSpec{
		{Name: "socket", Sizes: []int{3, 1, 2, 2, 1}},
		{Name: "node", Sizes: []int{4, 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if topo.Size() != 9 || topo.Groups(0) != 5 || topo.Groups(topo.NodeLevel()) != 2 {
		t.Fatalf("shape %d ranks, %d sockets, %d nodes", topo.Size(), topo.Groups(0), topo.Groups(topo.NodeLevel()))
	}
	// Socket 2 starts at rank 4; socket 4 is the single last rank.
	if topo.GroupOf(0, 3) != 1 || topo.GroupOf(0, 4) != 2 || topo.GroupOf(0, 8) != 4 {
		t.Errorf("socket of ranks 3, 4, 8 = %d, %d, %d, want 1, 2, 4",
			topo.GroupOf(0, 3), topo.GroupOf(0, 4), topo.GroupOf(0, 8))
	}
	if topo.Hop(0, 3) != HopShm || topo.Hop(0, 2) != HopSocket {
		t.Errorf("irregular hop classes wrong: %v %v", topo.Hop(0, 3), topo.Hop(0, 2))
	}
}

func TestHierTopologyValidation(t *testing.T) {
	bad := [][]LevelSpec{
		// No node level.
		{{Name: "socket", Sizes: []int{2, 2}}},
		// Rank count mismatch between levels.
		{{Name: "socket", Sizes: []int{2, 2}}, {Name: "node", Sizes: []int{5}}},
		// Node boundary splits a socket.
		{{Name: "socket", Sizes: []int{3, 3}}, {Name: "node", Sizes: []int{2, 4}}},
		// Empty group.
		{{Name: "node", Sizes: []int{4, 0}}},
		// Duplicate names.
		{{Name: "node", Sizes: []int{2}}, {Name: "node", Sizes: []int{2}}},
	}
	for i, specs := range bad {
		if _, err := NewHierTopology(specs); err == nil {
			t.Errorf("case %d: invalid topology accepted", i)
		}
	}
}

// TestLevelCostFallback pins the acceptance requirement that the
// extended hop classes price bit-identically to the historical shm/net
// pair when the profile declares no per-level override.
func TestLevelCostFallback(t *testing.T) {
	m := Laptop() // no LevelCosts
	if m.Alpha(HopSocket) != m.ShmAlpha || m.Alpha(HopNuma) != m.ShmAlpha {
		t.Error("inner-level classes must fall back to shm alpha")
	}
	if m.Alpha(HopGroup) != m.NetAlpha {
		t.Error("outer-level classes must fall back to net alpha")
	}
	if m.BetaPsPerByte(HopSocket) != m.ShmBetaPsPerByte || m.BetaPsPerByte(HopGroup) != m.NetBetaPsPerByte {
		t.Error("level beta fallbacks wrong")
	}

	cray := HazelHenCray()
	if cray.Alpha(HopSocket) >= cray.ShmAlpha {
		t.Error("hazelhen socket override should be cheaper than the shm transport")
	}
	if cray.Alpha(HopGroup) >= cray.NetAlpha {
		t.Error("hazelhen group override should be cheaper than the global network")
	}
	if err := cray.Validate(); err != nil {
		t.Fatal(err)
	}
}
