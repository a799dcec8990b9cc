package bench

import (
	"testing"

	"repro/internal/sim"
)

func TestStencilSweepSmokeAndDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("4096-rank sweep in -short mode")
	}
	rep, err := RunStencilSweep(sim.HazelHenCray(), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Points) != len(stencilHaloBytes) {
		t.Fatalf("got %d points for maxRanks=4096, want %d (one per halo width at 8^4)",
			len(rep.Points), len(stencilHaloBytes))
	}
	for _, p := range rep.Points {
		if p.Ranks != 4096 || p.Dims != "8x8x8x8" {
			t.Errorf("unexpected point %s/%d ranks", p.Dims, p.Ranks)
		}
		if p.VirtualUs <= 0 {
			t.Errorf("halo %dB: empty measurement (%v virtual us)", p.HaloBytes, p.VirtualUs)
		}
	}
	// Determinism: TestSweepGolden runs this same sweep and compares
	// every virtual time with the pinned golden.
}

func TestStencilShapesRespectCap(t *testing.T) {
	for _, s := range stencilShapes(8192) {
		if s.nodes*stencilPPN > 8192 {
			t.Errorf("shape %v exceeds the 8192-rank cap", s.dims)
		}
	}
	full := stencilShapes(1 << 20)
	last := full[len(full)-1]
	if last.nodes*stencilPPN < 65536 {
		t.Errorf("full ladder tops out at %d ranks, want >= 65536", last.nodes*stencilPPN)
	}
	// Every rung must brick-decompose at 64 ranks per node, or the
	// reorder silently degrades to identity.
	for _, s := range full {
		if _, ok := sim.TileExtents(stencilPPN, s.dims); !ok {
			t.Errorf("shape %v has no %d-rank brick decomposition", s.dims, stencilPPN)
		}
	}
}
