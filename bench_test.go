package repro

// One testing.B benchmark per figure of the paper's evaluation section.
// Latencies in the simulator are *virtual* and deterministic, so each
// benchmark runs its measurement once and reports the figure's key
// series through b.ReportMetric (unit suffix "vus" = virtual
// microseconds). The full sweeps are printed by cmd/experiments alone,
// whose report go test pins; these benchmarks cover each figure's most
// telling points so that `go test -bench=.` regenerates the headline
// numbers quickly.

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/bpmf"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/summa"
)

func reportPair(b *testing.B, label string, hy, pure sim.Time) {
	b.Helper()
	b.ReportMetric(hy.Us(), label+"_hy_vus")
	b.ReportMetric(pure.Us(), label+"_pure_vus")
}

// BenchmarkFig7 measures the single-full-node allgather (24 ranks) at a
// small and a large message size on the Cray profile.
func BenchmarkFig7(b *testing.B) {
	model := sim.HazelHenCray()
	shape := []int{bench.CoresPerNode}
	for i := 0; i < b.N; i++ {
		for _, elems := range []int{1, 32768} {
			hy, err := bench.HyAllgatherLatency(model, shape, 8*elems, bench.MicroOpts{})
			if err != nil {
				b.Fatal(err)
			}
			pure, err := bench.PureAllgatherLatency(model, shape, 8*elems, bench.MicroOpts{})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				reportPair(b, fmt.Sprintf("e%d", elems), hy, pure)
			}
		}
	}
}

// BenchmarkFig8 measures the one-rank-per-node case at 64 nodes.
func BenchmarkFig8(b *testing.B) {
	model := sim.VulcanOpenMPI()
	shape := make([]int, 64)
	for i := range shape {
		shape[i] = 1
	}
	for i := 0; i < b.N; i++ {
		for _, elems := range []int{64, 16384} {
			hy, err := bench.HyAllgatherLatency(model, shape, 8*elems, bench.MicroOpts{})
			if err != nil {
				b.Fatal(err)
			}
			pure, err := bench.PureAllgatherLatency(model, shape, 8*elems, bench.MicroOpts{})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				reportPair(b, fmt.Sprintf("e%d", elems), hy, pure)
			}
		}
	}
}

// BenchmarkFig9 measures the 64-node, 24-ranks-per-node point (the
// paper's rightmost, largest-advantage configuration) at 512 elements.
func BenchmarkFig9(b *testing.B) {
	model := sim.HazelHenCray()
	shape := make([]int, 64)
	for i := range shape {
		shape[i] = 24
	}
	for i := 0; i < b.N; i++ {
		hy, err := bench.HyAllgatherLatency(model, shape, 8*512, bench.MicroOpts{Iters: 2})
		if err != nil {
			b.Fatal(err)
		}
		pure, err := bench.PureAllgatherLatency(model, shape, 8*512, bench.MicroOpts{Iters: 2})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportPair(b, "ppn24", hy, pure)
			b.ReportMetric(float64(pure)/float64(hy), "ratio")
		}
	}
}

// BenchmarkFig10 measures the irregularly populated configuration
// (42x24 + 1x16) at 1024 elements.
func BenchmarkFig10(b *testing.B) {
	model := sim.HazelHenCray()
	shape := bench.Fig10Shape()
	for i := 0; i < b.N; i++ {
		hy, err := bench.HyAllgatherLatency(model, shape, 8*1024, bench.MicroOpts{Iters: 2})
		if err != nil {
			b.Fatal(err)
		}
		pure, err := bench.PureAllgatherLatency(model, shape, 8*1024, bench.MicroOpts{Iters: 2})
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			reportPair(b, "irregular", hy, pure)
			b.ReportMetric(float64(pure)/float64(hy), "ratio")
		}
	}
}

// BenchmarkFig11 measures SUMMA at the 8x8 single-node point (the
// paper's headline ~5x) and the 256x256 multi-node point (ratio -> 1).
func BenchmarkFig11(b *testing.B) {
	model := sim.HazelHenCray()
	cases := []struct {
		cores, block int
	}{{16, 8}, {256, 256}}
	for i := 0; i < b.N; i++ {
		for _, c := range cases {
			grid := 1
			for grid*grid < c.cores {
				grid++
			}
			topo, err := sim.NewTopology(bench.ShapeFor(c.cores))
			if err != nil {
				b.Fatal(err)
			}
			var times [2]sim.Time
			for j, hy := range []bool{false, true} {
				w, err := mpi.NewWorld(model, topo)
				if err != nil {
					b.Fatal(err)
				}
				res, err := summa.Run(w, summa.Config{GridDim: grid, BlockDim: c.block, Hybrid: hy})
				if err != nil {
					b.Fatal(err)
				}
				times[j] = res.Makespan
			}
			if i == 0 {
				label := fmt.Sprintf("c%db%d", c.cores, c.block)
				reportPair(b, label, times[1], times[0])
				b.ReportMetric(float64(times[0])/float64(times[1]), label+"_ratio")
			}
		}
	}
}

// BenchmarkFig12 measures the BPMF TotalTime ratio at 24 and 1024
// cores (the endpoints of the paper's rising curve).
func BenchmarkFig12(b *testing.B) {
	model := sim.HazelHenCray()
	for i := 0; i < b.N; i++ {
		for _, cores := range []int{24, 1024} {
			topo, err := sim.NewTopology(bench.ShapeFor(cores))
			if err != nil {
				b.Fatal(err)
			}
			var times [2]sim.Time
			for j, hy := range []bool{false, true} {
				w, err := mpi.NewWorld(model, topo)
				if err != nil {
					b.Fatal(err)
				}
				cfg := bench.Fig12Config()
				cfg.Hybrid = hy
				res, err := bpmf.Run(w, cfg)
				if err != nil {
					b.Fatal(err)
				}
				times[j] = res.Makespan
			}
			if i == 0 {
				b.ReportMetric(float64(times[0])/float64(times[1]), fmt.Sprintf("c%d_ratio", cores))
			}
		}
	}
}

// BenchmarkSyncFlavors is the ablation behind the paper's Sect. 6
// synchronization discussion: the hybrid allgather under the three sync
// flavors on one full node.
func BenchmarkSyncFlavors(b *testing.B) {
	model := sim.HazelHenCray()
	shape := []int{bench.CoresPerNode}
	flavors := []struct {
		name string
		mode int
	}{{"barrier", 0}, {"p2p", 1}, {"sharedflags", 2}}
	for i := 0; i < b.N; i++ {
		for _, f := range flavors {
			t, err := bench.HyAllgatherLatency(model, shape, 8*512, bench.MicroOpts{Sync: syncFromInt(f.mode)})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric(t.Us(), f.name+"_vus")
			}
		}
	}
}

// BenchmarkBPMFReal and BenchmarkSUMMAVerify are the two halves of the
// repository benchmark's fig-apps op as host-time benchmarks: the real
// Gibbs sampler at 1200x240, K=10, three iterations on 2x12 ranks, and
// the verified 4x4 multiply at block 64 on four nodes, Ori then Hy on a
// fresh real-data world each. `-cpuprofile` / `-memprofile` on these is
// how the op's la, bpmf and summa time is read.
func BenchmarkBPMFReal(b *testing.B) {
	model, topo := sim.HazelHenCray(), sim.MustUniform(2, 12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var res [2]bpmf.Result
		for j, hy := range []bool{false, true} {
			w, err := mpi.NewWorld(model, topo, mpi.WithRealData())
			if err != nil {
				b.Fatal(err)
			}
			res[j], err = bpmf.Run(w, bpmf.Config{
				Users: 1200, Items: 240, K: 10, AvgDeg: 4, Iters: 3,
				Seed: 1, Hybrid: hy, Real: true, RowOverheadFlops: 3e6,
			})
			w.Close()
			if err != nil {
				b.Fatal(err)
			}
		}
		if res[0].Checksum != res[1].Checksum {
			b.Fatalf("Ori and Hy sample different chains: checksum %v vs %v", res[0].Checksum, res[1].Checksum)
		}
	}
}

func BenchmarkSUMMAVerify(b *testing.B) {
	model, topo := sim.HazelHenCray(), sim.MustUniform(4, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, hy := range []bool{false, true} {
			w, err := mpi.NewWorld(model, topo, mpi.WithRealData())
			if err != nil {
				b.Fatal(err)
			}
			res, err := summa.Run(w, summa.Config{GridDim: 4, BlockDim: 64, Hybrid: hy, Verify: true})
			w.Close()
			if err != nil {
				b.Fatal(err)
			}
			if !res.Verified {
				b.Fatalf("hybrid=%v: product not verified", hy)
			}
		}
	}
}
