package spec_test

import (
	"context"
	"runtime"
	"testing"

	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/spec"
)

// TestFoldedHierRunStoresExecutingRanksOnly: on a folded 1024x64 event
// world 64 of 65,536 ranks execute, and a Run that builds the
// hierarchy and gathers once allocates for those 64 — well under
// 100 KB once the geometry is cached, where a handle arena sized to
// the communicator alone was 7.3 MB — while its virtual time stays the
// unfolded answer.
func TestFoldedHierRunStoresExecutingRanksOnly(t *testing.T) {
	if testing.Short() {
		t.Skip("the unfolded reference runs 65,536 ranks")
	}
	const machine, nodes, ppn, per = "hazelhen-cray", 1024, 64, 8
	q, err := spec.Parse([]byte(`{"machine":"hazelhen-cray","topology":{"nodes":1024,"ppn":64},` +
		`"collective":"allgather","sizes":[8],"iters":1,"engine":"event","fold":"off"}`))
	if err != nil {
		t.Fatal(err)
	}
	want, err := spec.Referee(context.Background(), q, spec.Path{Name: "unfolded"})
	if err != nil {
		t.Fatal(err)
	}

	model, topo := sim.Profiles()[machine](), sim.MustUniform(nodes, ppn)
	u := coll.HierAllgatherFoldUnit(model, topo, per, coll.Tuning{})
	if u != ppn {
		t.Fatalf("fold unit %d, want %d", u, ppn)
	}
	w, err := mpi.NewWorldConfig(model, topo, mpi.Config{Engine: sim.EngineEvent, FoldUnit: u})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	run := func() uint64 {
		var before, after runtime.MemStats
		w.ResetClocks()
		runtime.ReadMemStats(&before)
		err := w.Run(func(p *mpi.Proc) error {
			h, err := coll.NewHier(p.CommWorld())
			if err != nil {
				return err
			}
			return h.Allgather(mpi.Sized(per), mpi.Sized(per*p.Size()), per)
		})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	run() // fills the geometry cache and the record pools
	bytes := run()
	if got := int64(w.MaxClock()); got != want.Points[0].VirtualPs {
		t.Errorf("folded run took %d ps, unfolded %d ps", got, want.Points[0].VirtualPs)
	}
	if bytes > 100<<10 {
		t.Errorf("folded run allocated %d B, want under 100 KB", bytes)
	}
}
