package bench

import "testing"

func TestScaleSweepSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-rank sweep in -short mode")
	}
	rep, err := RunScaleSweep("hazelhen-cray", 4096, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != 4 {
		t.Fatalf("got %d points for maxRanks=4096, want 4 (allgather+allreduce at 64x64 on both engines)", len(rep.Points))
	}
	for _, p := range rep.Points {
		if p.Ranks != 4096 {
			t.Errorf("%s/%s: %d ranks, want 4096", p.Coll, p.Engine, p.Ranks)
		}
		if p.VirtualUs <= 0 || p.VirtualPs <= 0 {
			t.Errorf("%s/%s: empty measurement (%v virtual us, %d ps)", p.Coll, p.Engine, p.VirtualUs, p.VirtualPs)
		}
		switch p.Engine {
		case "goroutine":
			if p.FoldUnit != 0 {
				t.Errorf("%s/%s: goroutine point folded (unit %d)", p.Coll, p.Engine, p.FoldUnit)
			}
		case "event":
			// Both sweep workloads are fold-symmetric on the uniform
			// 64-ppn ladder, so the event points must run folded.
			if p.FoldUnit != p.PPN {
				t.Errorf("%s/%s: fold unit %d, want %d", p.Coll, p.Engine, p.FoldUnit, p.PPN)
			}
		default:
			t.Errorf("%s: unknown engine %q", p.Coll, p.Engine)
		}
	}
	// RunScaleSweep itself asserts cross-engine virtual-time equality
	// (points come in goroutine/event pairs), but pin it here too so a
	// future refactor can't drop the check.
	for i := 0; i+1 < len(rep.Points); i += 2 {
		if a, b := rep.Points[i], rep.Points[i+1]; a.VirtualPs != b.VirtualPs {
			t.Errorf("%s: cross-engine virtual times differ: %d vs %d ps", a.Coll, a.VirtualPs, b.VirtualPs)
		}
	}
}

func TestScaleShapesRespectCap(t *testing.T) {
	for _, s := range scaleShapes(8192) {
		if s[0]*s[1] > 8192 {
			t.Errorf("shape %dx%d exceeds the 8192-rank cap", s[0], s[1])
		}
	}
	full := scaleShapes(1 << 20)
	last := full[len(full)-1]
	if last[0]*last[1] != 1<<20 {
		t.Errorf("full ladder tops out at %d ranks, want 1048576", last[0]*last[1])
	}
}
