package coll

import (
	"slices"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// The composer geometry must be shared across worlds of the same shape
// (the scale sweeps rebuild identical worlds for every measurement) and
// never shared across different memberships or stacks.

func TestComposerGeomCachedAcrossWorlds(t *testing.T) {
	topo := sim.MustUniformHier(3, sim.LevelDim{Name: "socket", Arity: 2}, sim.LevelDim{Name: "node", Arity: 2})
	members := make([]int, topo.Size())
	for i := range members {
		members[i] = i
	}
	hash := sim.HashInts(sim.HashSeed, members)
	g1, err := composerGeomFor(topo, members, hash, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	g2, err := composerGeomFor(topo, members, hash, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if g1 != g2 {
		t.Error("identical (topology, membership, stack) did not hit the geometry cache")
	}
	// A rebuilt topology of the same shape interns to the same object,
	// so a fresh world still hits.
	topo2 := sim.MustUniformHier(3, sim.LevelDim{Name: "socket", Arity: 2}, sim.LevelDim{Name: "node", Arity: 2})
	g3, err := composerGeomFor(topo2, members, hash, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if g3 != g1 {
		t.Error("rebuilt same-shape topology missed the geometry cache")
	}
	// Different stack or membership must not share.
	g4, err := composerGeomFor(topo, members, hash, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if g4 == g1 {
		t.Error("different level stacks share a cached geometry")
	}
	g5, err := composerGeomFor(topo, members[:6], sim.HashInts(sim.HashSeed, members[:6]), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if g5 == g1 {
		t.Error("different memberships share a cached geometry")
	}
	// An equal table in another array (a rebuilt world's) hits, and the
	// geometry then keeps that array, so its next hit compares no member.
	again := slices.Clone(members)
	g6, err := composerGeomFor(topo, again, hash, []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if g6 != g1 || &g1.members[0] != &again[0] {
		t.Error("an equal member table in a new array did not hit and re-anchor the cached geometry")
	}
}

// TestComposerMatchesHistoricalSplitConstruction cross-checks the
// derived tier communicators against the generic exchange-based Split
// chain the seed used — same groups, same ranks, same leader order.
func TestComposerMatchesHistoricalSplitConstruction(t *testing.T) {
	topo := sim.MustUniformHier(2, sim.LevelDim{Name: "socket", Arity: 2}, sim.LevelDim{Name: "node", Arity: 3})
	w, err := mpi.NewWorld(sim.Laptop(), topo, mpi.WithRealData())
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.Run(func(p *mpi.Proc) error {
		c := p.CommWorld()
		comp, err := NewComposer(c, []int{0, 1})
		if err != nil {
			return err
		}
		// Historical construction with generic Splits.
		var prev *mpi.Comm
		var tiers []*mpi.Comm
		for i, l := range []int{0, 1} {
			color := mpi.Undefined
			if i == 0 || (prev != nil && prev.Rank() == 0) {
				color = topo.GroupOf(l, c.Ranks()[c.Rank()])
			}
			sub, err := c.Split(color, c.Rank())
			if err != nil {
				return err
			}
			tiers = append(tiers, sub)
			prev = sub
		}
		topColor := mpi.Undefined
		if last := tiers[len(tiers)-1]; last != nil && last.Rank() == 0 {
			topColor = 0
		}
		top, err := c.Split(topColor, c.Rank())
		if err != nil {
			return err
		}

		for i := range tiers {
			cmpComms(t, p.Rank(), comp.Tier(i), tiers[i])
		}
		cmpComms(t, p.Rank(), comp.Top(), top)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func cmpComms(t *testing.T, rank int, got, want *mpi.Comm) {
	t.Helper()
	if (got == nil) != (want == nil) {
		t.Errorf("rank %d: derived comm nil-ness %v, split comm %v", rank, got == nil, want == nil)
		return
	}
	if got == nil {
		return
	}
	if got.Rank() != want.Rank() || got.Size() != want.Size() {
		t.Errorf("rank %d: derived %d/%d, split %d/%d", rank, got.Rank(), got.Size(), want.Rank(), want.Size())
	}
	for r := 0; r < got.Size() && r < want.Size(); r++ {
		if got.Ranks()[r] != want.Ranks()[r] {
			t.Errorf("rank %d: member %d is global %d (derived) vs %d (split)", rank, r, got.Ranks()[r], want.Ranks()[r])
		}
	}
}
