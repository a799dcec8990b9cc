package coll

import (
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

func runHierWorld(t *testing.T, model *sim.CostModel, topo *sim.Topology, body func(p *mpi.Proc) error) *mpi.World {
	t.Helper()
	w, err := mpi.NewWorld(model, topo, mpi.WithRealData())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	return w
}

// TestComposerMatchesHierBitIdentical pins the refactor's core
// acceptance requirement from the geometry side: on a topology that
// declares extra levels but a cost model without per-level overrides,
// the two-level stack [node] must produce exactly the virtual time of
// the node-only topology — the extra levels fall back bit-identically.
func TestComposerMatchesHierBitIdentical(t *testing.T) {
	const per = 8 * 64
	run := func(topo *sim.Topology) sim.Time {
		w, err := mpi.NewWorld(sim.Laptop(), topo, mpi.WithRealData())
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Run(func(p *mpi.Proc) error {
			h, err := NewHier(p.CommWorld())
			if err != nil {
				return err
			}
			recv := mpi.Bytes(make([]byte, per*p.Size()))
			if err := h.Allgather(fill(p.Rank(), 64), recv, per); err != nil {
				return err
			}
			checkGathered(t, "hier", recv, p.Size(), 64)
			buf := fill(p.Rank(), 64)
			return h.Bcast(buf, 3)
		}); err != nil {
			t.Fatal(err)
		}
		return w.MaxClock()
	}

	flat, err := sim.NewTopology([]int{6, 6})
	if err != nil {
		t.Fatal(err)
	}
	deep, err := sim.UniformHier(3,
		sim.LevelDim{Name: "socket", Arity: 2},
		sim.LevelDim{Name: "node", Arity: 2})
	if err != nil {
		t.Fatal(err)
	}
	a, b := run(flat), run(deep)
	if a != b {
		t.Fatalf("virtual time diverged: node-only %d ps, socket⊂node %d ps", int64(a), int64(b))
	}
}

// TestComposerThreeLevelAllgather covers the recursive composition over
// 3+ level stacks, including irregular populations (paper Fig. 10),
// single-rank levels, and non-power-of-two leader counts at every tier.
func TestComposerThreeLevelAllgather(t *testing.T) {
	cases := []struct {
		name   string
		topo   func() (*sim.Topology, error)
		levels []string
	}{
		{
			name: "uniform_2x2x3",
			topo: func() (*sim.Topology, error) {
				return sim.UniformHier(3,
					sim.LevelDim{Name: "socket", Arity: 2},
					sim.LevelDim{Name: "node", Arity: 2})
			},
			levels: []string{"socket", "node"},
		},
		{
			name: "nonpow2_leaders_3x3x2",
			topo: func() (*sim.Topology, error) {
				return sim.UniformHier(2,
					sim.LevelDim{Name: "socket", Arity: 3},
					sim.LevelDim{Name: "node", Arity: 3})
			},
			levels: []string{"socket", "node"},
		},
		{
			name: "irregular_sockets_and_nodes",
			topo: func() (*sim.Topology, error) {
				return sim.NewHierTopology([]sim.LevelSpec{
					{Name: "socket", Sizes: []int{3, 1, 2, 2, 1}},
					{Name: "node", Sizes: []int{4, 5}},
				})
			},
			levels: []string{"socket", "node"},
		},
		{
			name: "single_rank_levels",
			topo: func() (*sim.Topology, error) {
				return sim.NewHierTopology([]sim.LevelSpec{
					{Name: "socket", Sizes: []int{1, 1, 1, 2}},
					{Name: "node", Sizes: []int{1, 2, 2}},
				})
			},
			levels: []string{"socket", "node"},
		},
		{
			name: "four_tier_group_stack",
			topo: func() (*sim.Topology, error) {
				return sim.UniformHier(2,
					sim.LevelDim{Name: "socket", Arity: 2},
					sim.LevelDim{Name: "node", Arity: 2},
					sim.LevelDim{Name: "group", Arity: 2})
			},
			levels: []string{"socket", "node", "group"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			topo, err := tc.topo()
			if err != nil {
				t.Fatal(err)
			}
			const elems = 13
			per := 8 * elems
			runHierWorld(t, sim.HazelHenCray(), topo, func(p *mpi.Proc) error {
				h, err := NewHierStack(p.CommWorld(), tc.levels...)
				if err != nil {
					return err
				}
				if got := h.depth(); got != len(tc.levels) {
					return fmt.Errorf("composer has %d tiers, want %d", got, len(tc.levels))
				}
				recv := mpi.Bytes(make([]byte, per*p.Size()))
				if err := h.Allgather(fill(p.Rank(), elems), recv, per); err != nil {
					return err
				}
				checkGathered(t, tc.name, recv, p.Size(), elems)
				return nil
			})
		})
	}
}

// TestComposerBcastFromChild exercises the multi-tier leader-chain
// hand-off: the root is a deep child (not a leader at any level).
func TestComposerBcastFromChild(t *testing.T) {
	topo, err := sim.NewHierTopology([]sim.LevelSpec{
		{Name: "socket", Sizes: []int{2, 3, 1, 2}},
		{Name: "node", Sizes: []int{5, 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	const elems = 9
	for _, root := range []int{0, 4, 6, 7} {
		t.Run(fmt.Sprintf("root%d", root), func(t *testing.T) {
			runHierWorld(t, sim.VulcanOpenMPI(), topo, func(p *mpi.Proc) error {
				h, err := NewHierStack(p.CommWorld(), "socket", "node")
				if err != nil {
					return err
				}
				var buf mpi.Buf
				if p.Rank() == root {
					buf = fill(root, elems)
				} else {
					buf = mpi.Bytes(make([]byte, 8*elems))
				}
				if err := h.Bcast(buf, root); err != nil {
					return err
				}
				for i := 0; i < elems; i++ {
					want := float64(root*1_000_000 + i)
					if got := buf.Float64At(i); got != want {
						return fmt.Errorf("rank %d elem %d = %v, want %v", p.Rank(), i, got, want)
					}
				}
				return nil
			})
		})
	}
}

// TestComposerPricing checks that PolicyCost prices whole compositions
// per level: each phase carries its tier's hop class, and the top-tier
// exchange crossover moves with the payload while the intra-node tiers
// keep their own choices.
func TestComposerPricing(t *testing.T) {
	topo, err := sim.UniformHier(6,
		sim.LevelDim{Name: "socket", Arity: 2},
		sim.LevelDim{Name: "node", Arity: 8})
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(sim.HazelHenCray(), topo)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(p *mpi.Proc) error {
		k, err := NewComposerNamed(p.CommWorld(), "socket", "node")
		if err != nil {
			return err
		}
		if p.Rank() != 0 {
			return nil
		}
		tun := Tuning{Policy: PolicyCost}
		small, smallTotal, err := k.PriceAllgather(64, tun)
		if err != nil {
			return err
		}
		big, bigTotal, err := k.PriceAllgather(1<<20, tun)
		if err != nil {
			return err
		}
		if smallTotal <= 0 || bigTotal <= smallTotal {
			return fmt.Errorf("pricing not monotone: %v vs %v", smallTotal, bigTotal)
		}
		hops := map[string]string{}
		for _, te := range small {
			hops[te.Level+"/"+te.Phase] = te.Hop
		}
		if hops["socket/gather"] != "socket" || hops["top/exchange"] != "net" {
			return fmt.Errorf("per-level hop classes wrong: %v", hops)
		}
		// The top exchange choice must move with size while remaining
		// a registered allgather algorithm.
		pick := func(ests []TierEstimate) string {
			for _, te := range ests {
				if te.Phase == "exchange" {
					return te.Algorithm
				}
			}
			return ""
		}
		if a, b := pick(small), pick(big); a == "" || b == "" || a == b {
			return fmt.Errorf("top exchange crossover did not move: small=%q big=%q", a, b)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestGatherScanThroughRegistry pins the satellite requirement: Gather
// and Scan route through the selection engine with table entries
// matching their historical behavior, and Force overrides reach them.
func TestGatherScanThroughRegistry(t *testing.T) {
	model := sim.HazelHenCray()
	for _, tc := range []struct {
		cl   Collective
		want string
	}{
		{CollGather, "binomial"},
		{CollScan, "recdbl"},
	} {
		e := Env{Size: 8, Bytes: 1 << 10, Count: 128, Model: model, Hop: sim.HopNet}
		got, err := Choose(tc.cl, e, Tuning{})
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("%s table choice = %q, want %q", tc.cl, got, tc.want)
		}
	}

	// Forced linear variants must produce the same results as the
	// defaults.
	const elems = 11
	for _, force := range []string{"", "linear"} {
		tun := Tuning{}
		if force != "" {
			tun.Force = map[Collective]string{CollGather: force, CollScan: force}
		}
		runWorld(t, sim.Laptop(), []int{3, 3}, func(p *mpi.Proc) error {
			c := WithTuning(p.CommWorld(), tun)
			recv := mpi.Bytes(make([]byte, 8*elems*p.Size()))
			if err := Gather(c, fill(p.Rank(), elems), recv, 8*elems, 2); err != nil {
				return err
			}
			if p.Rank() == 2 {
				checkGathered(t, "gather/"+force, recv, p.Size(), elems)
			}
			out := mpi.Bytes(make([]byte, 8))
			if err := Scan(c, mpi.FromFloat64s([]float64{float64(p.Rank() + 1)}), out, 1, mpi.Float64, mpi.OpSum); err != nil {
				return err
			}
			want := float64((p.Rank() + 1) * (p.Rank() + 2) / 2)
			if got := out.Float64At(0); got != want {
				return fmt.Errorf("scan(%s) rank %d = %v, want %v", force, p.Rank(), got, want)
			}
			return nil
		})
	}
}

// TestTuningSharedLevelField covers the SharedLevel tuning key's
// runtime effect surface. (Parsing the sharedlevel= grammar key lives
// in internal/spec since the Spec API redesign.)
func TestTuningSharedLevelField(t *testing.T) {
	tun := Tuning{Policy: PolicyCost, SharedLevel: "socket",
		Force: map[Collective]string{CollGather: "linear", CollScan: "linear"}}
	if tun.SharedLevel != "socket" || tun.Policy != PolicyCost {
		t.Fatalf("tuning %+v", tun)
	}
	if !Registered(CollGather, tun.Force[CollGather]) || !Registered(CollScan, tun.Force[CollScan]) {
		t.Fatalf("force map names unregistered algorithms: %v", tun.Force)
	}
}
