package bench

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/coll"
	"repro/internal/hybrid"
	"repro/internal/mpi"
	"repro/internal/sim"
)

func fmtSscan(s string, f *float64) (int, error) { return fmt.Sscan(s, f) }

func TestShapeFor(t *testing.T) {
	cases := []struct {
		cores int
		want  []int
	}{
		{4, []int{4}},
		{24, []int{24}},
		{48, []int{24, 24}},
		{1024, append(rep(24, 42), 16)},
	}
	for _, c := range cases {
		got := ShapeFor(c.cores)
		if len(got) != len(c.want) {
			t.Errorf("ShapeFor(%d) = %v", c.cores, got)
			continue
		}
		total := 0
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("ShapeFor(%d)[%d] = %d, want %d", c.cores, i, got[i], c.want[i])
			}
			total += got[i]
		}
		if total != c.cores {
			t.Errorf("ShapeFor(%d) sums to %d", c.cores, total)
		}
	}
}

func rep(v, n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestFig10Shape(t *testing.T) {
	shape := Fig10Shape()
	total := 0
	for _, s := range shape {
		total += s
	}
	if total != 1024 || len(shape) != 43 || shape[42] != 16 {
		t.Errorf("Fig10Shape wrong: %d nodes, %d ranks, last %d", len(shape), total, shape[42])
	}
}

func TestElems(t *testing.T) {
	e := Elems()
	if e[0] != 1 || e[len(e)-1] != 16384 {
		t.Errorf("Elems endpoints: %v", e)
	}
	f := ElemsFine()
	if f[0] != 1 || f[len(f)-1] != 32768 || len(f) != 16 {
		t.Errorf("ElemsFine wrong: %v", f)
	}
}

func TestTableFprint(t *testing.T) {
	tab := &Table{
		Name:   "demo",
		Note:   "a note",
		Header: []string{"a", "long-col"},
	}
	tab.AddRow("1", "2")
	tab.AddRow("333", "4")
	var sb strings.Builder
	if err := tab.Fprint(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"== demo ==", "a note", "long-col", "333"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestMicroLatenciesBasic(t *testing.T) {
	model := sim.Laptop()
	shape := []int{4, 4}
	hy, err := HyAllgatherLatency(model, shape, 1024, MicroOpts{Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	pure, err := PureAllgatherLatency(model, shape, 1024, MicroOpts{Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if hy <= 0 || pure <= 0 {
		t.Errorf("latencies must be positive: hy=%v pure=%v", hy, pure)
	}
	hb, err := HyBcastLatency(model, shape, 1024, MicroOpts{Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := PureBcastLatency(model, shape, 1024, MicroOpts{Iters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if hb <= 0 || pb <= 0 {
		t.Errorf("bcast latencies must be positive: hy=%v pure=%v", hb, pb)
	}
}

func TestMicroLatencyDeterministic(t *testing.T) {
	model := sim.HazelHenCray()
	shape := []int{8, 8}
	a, err := HyAllgatherLatency(model, shape, 4096, MicroOpts{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := HyAllgatherLatency(model, shape, 4096, MicroOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("latency not deterministic: %v vs %v", a, b)
	}
}

func TestFig7SmallRun(t *testing.T) {
	// A coarse Fig. 7 run must keep the paper's two properties:
	// hybrid below pure at every size, and hybrid flat.
	tab, err := Fig7(FigOpts{Iters: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("no rows")
	}
	var firstHy, lastHy float64
	for i, row := range tab.Rows {
		var hy, pure float64
		if _, err := sscan(row[3], &hy); err != nil {
			t.Fatal(err)
		}
		if _, err := sscan(row[4], &pure); err != nil {
			t.Fatal(err)
		}
		if hy >= pure {
			t.Errorf("row %s: hybrid (%v) not below pure (%v)", row[0], hy, pure)
		}
		if i == 0 {
			firstHy = hy
		}
		lastHy = hy
	}
	if lastHy > 2*firstHy {
		t.Errorf("hybrid curve not flat: %v -> %v", firstHy, lastHy)
	}
}

func sscan(s string, f *float64) (int, error) {
	return fmtSscan(s, f)
}

// HyBcastLatency measures the hybrid broadcast (Fig. 6) including its
// synchronization.
func HyBcastLatency(model *sim.CostModel, nodeSizes []int, bytes int, o MicroOpts) (sim.Time, error) {
	iters := o.iters()
	t, err := Makespan(model, nodeSizes, func(p *mpi.Proc) error {
		ctx, err := hybrid.New(p.CommWorld(), hybrid.WithSync(o.Sync))
		if err != nil {
			return err
		}
		b, err := ctx.NewBcaster(bytes)
		if err != nil {
			return err
		}
		for i := 0; i < iters; i++ {
			if err := b.Bcast(0); err != nil {
				return err
			}
		}
		return nil
	})
	return t / sim.Time(iters), err
}

// PureBcastLatency measures the SMP-aware pure-MPI broadcast baseline.
func PureBcastLatency(model *sim.CostModel, nodeSizes []int, bytes int, o MicroOpts) (sim.Time, error) {
	iters := o.iters()
	t, err := Makespan(model, nodeSizes, func(p *mpi.Proc) error {
		h, err := coll.NewHier(p.CommWorld())
		if err != nil {
			return err
		}
		buf := mpi.Sized(bytes)
		for i := 0; i < iters; i++ {
			if err := h.Bcast(buf, 0); err != nil {
				return err
			}
		}
		return nil
	})
	return t / sim.Time(iters), err
}
