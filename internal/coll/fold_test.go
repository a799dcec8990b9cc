package coll

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

func TestFoldSafeMetadata(t *testing.T) {
	safe := []struct {
		cl   Collective
		name string
	}{
		{CollAllgather, "ring"},
		{CollAllgather, "recdbl"},
		{CollAllreduce, "recdbl"},
		{CollBarrier, "dissemination"},
		{CollAlltoall, "pairwise"},
	}
	for _, s := range safe {
		if !FoldSafe(s.cl, s.name) {
			t.Errorf("FoldSafe(%s, %s) = false, want true", s.cl, s.name)
		}
	}
	unsafe := []struct {
		cl   Collective
		name string
	}{
		{CollAllgather, "bruck"},
		{CollAllgather, "neighbor"},
		{CollAllreduce, "rabenseifner"},
		{CollBcast, "binomial"},
		{CollBarrier, "central"},
		{CollAllgather, "no-such-algorithm"},
	}
	for _, s := range unsafe {
		if FoldSafe(s.cl, s.name) {
			t.Errorf("FoldSafe(%s, %s) = true, want false", s.cl, s.name)
		}
	}
}

func TestHierAllgatherFoldUnit(t *testing.T) {
	model := sim.HazelHenCray()
	irregular, err := sim.NewTopology([]int{3, 5, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		topo *sim.Topology
		want int
	}{
		{"uniform pow2", sim.MustUniform(64, 64), 64},
		{"non-pow2 total", sim.MustUniform(6, 4), 0},
		{"non-pow2 unit", sim.MustUniform(4, 6), 0},
		{"irregular", irregular, 0},
		{"single unit", sim.MustUniform(1, 8), 0},
	}
	for _, tc := range cases {
		if got := HierAllgatherFoldUnit(model, tc.topo, 8, Tuning{}); got != tc.want {
			t.Errorf("%s: HierAllgatherFoldUnit = %d, want %d", tc.name, got, tc.want)
		}
	}
	// Forcing a specific (fold-safe) top algorithm keeps the unit: the
	// helper follows the same Force/policy resolution as the runtime.
	if got := HierAllgatherFoldUnit(model, sim.MustUniform(64, 64), 8,
		Tuning{Force: map[Collective]string{CollAllgather: "ring"}}); got != 64 {
		t.Errorf("forced ring: HierAllgatherFoldUnit = %d, want 64", got)
	}
}

func TestAllreduceFoldUnit(t *testing.T) {
	model := sim.HazelHenCray()
	topo := sim.MustUniform(64, 64)
	// The sweep's point: 8 bytes, one element — the table picks
	// recursive doubling, which is fold-safe.
	if got := AllreduceFoldUnit(model, topo, 8, 1, Tuning{}); got != 64 {
		t.Errorf("AllreduceFoldUnit(small) = %d, want 64", got)
	}
	// Forcing Rabenseifner (unmarked: halving buffers) must disable
	// folding even though the topology qualifies.
	tun := Tuning{Force: map[Collective]string{CollAllreduce: "rabenseifner"}}
	if got := AllreduceFoldUnit(model, topo, 1<<20, 1<<17, tun); got != 0 {
		t.Errorf("AllreduceFoldUnit(rabenseifner) = %d, want 0", got)
	}
	if got := AllreduceFoldUnit(model, sim.MustUniform(6, 4), 8, 1, Tuning{}); got != 0 {
		t.Errorf("AllreduceFoldUnit(non-pow2) = %d, want 0", got)
	}
}

// TestFoldedHierAllgatherMatchesUnfolded runs the actual sweep workload
// — the hierarchical allgather — folded on both engines and checks the
// virtual makespan against the unfolded full-width run, end to end
// through the composer, the top-exchange pick and the folded runtime.
func TestFoldedHierAllgatherMatchesUnfolded(t *testing.T) {
	model := sim.HazelHenCray()
	topo := sim.MustUniform(8, 4)
	const per = 8
	body := func(p *mpi.Proc) error {
		h, err := NewHier(p.CommWorld())
		if err != nil {
			return err
		}
		send := mpi.Sized(per)
		recv := mpi.Sized(per * p.Size())
		for i := 0; i < 2; i++ {
			if err := h.Allgather(send, recv, per); err != nil {
				return err
			}
		}
		return nil
	}
	run := func(opts ...mpi.Option) sim.Time {
		t.Helper()
		w, err := mpi.NewWorld(model, topo, opts...)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		if err := w.Run(body); err != nil {
			t.Fatal(err)
		}
		return w.MaxClock()
	}
	u := HierAllgatherFoldUnit(model, topo, per, Tuning{})
	if u != 4 {
		t.Fatalf("HierAllgatherFoldUnit = %d, want 4", u)
	}
	want := run()
	for _, e := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent} {
		if got := run(mpi.WithEngine(e), func(c *mpi.Config) { c.FoldUnit = u }); got != want {
			t.Errorf("folded %v: makespan %d ps, want %d ps", e, int64(got), int64(want))
		}
	}
}

// FoldSafe reports whether a registered algorithm carries the
// rank-symmetry metadata: it is known to execute a
// translation-class-consistent schedule (safe under mpi.Config.FoldUnit) when
// the communicator size and the fold unit are both powers of two.
// Unknown names report false.
func FoldSafe(cl Collective, name string) bool {
	en := findEntry(cl, name)
	return en != nil && en.foldable
}
