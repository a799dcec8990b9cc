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
	"repro/internal/hybrid"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/summa"
)

// reportPairs runs the Hy_Allgather and pure Allgather series of one
// machine and shape as spec Queries (bench.AllgatherQuery) and reports
// each point's per-op virtual times and their ratio under label(elems).
func reportPairs(b *testing.B, machine string, topo spec.Topology, elems []int, label func(e int) string) {
	b.Helper()
	var res [2]*spec.Result
	for i, hy := range []bool{true, false} {
		var err error
		if res[i], err = spec.Run(bench.AllgatherQuery(machine, topo, elems, hy)); err != nil {
			b.Fatal(err)
		}
	}
	for i, e := range elems {
		hy, pure := res[0].Points[i].VirtualUsPerOp, res[1].Points[i].VirtualUsPerOp
		b.ReportMetric(hy, label(e)+"_hy_vus")
		b.ReportMetric(pure, label(e)+"_pure_vus")
		b.ReportMetric(pure/hy, label(e)+"_ratio")
	}
}

func byElems(e int) string { return fmt.Sprintf("e%d", e) }

// BenchmarkFig7 measures the single-full-node allgather (24 ranks) at a
// small and a large message size on the Cray profile.
func BenchmarkFig7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportPairs(b, "hazelhen-cray", spec.Topology{Nodes: 1, PPN: bench.CoresPerNode}, []int{1, 32768}, byElems)
	}
}

// BenchmarkFig8 measures the one-rank-per-node case at 64 nodes.
func BenchmarkFig8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportPairs(b, "vulcan-openmpi", spec.Topology{Nodes: 64, PPN: 1}, []int{64, 16384}, byElems)
	}
}

// BenchmarkFig9 measures the 64-node, 24-ranks-per-node point (the
// paper's rightmost, largest-advantage configuration) at 512 elements.
func BenchmarkFig9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportPairs(b, "hazelhen-cray", spec.Topology{Nodes: 64, PPN: 24}, []int{512},
			func(int) string { return "ppn24" })
	}
}

// BenchmarkFig10 measures the irregularly populated configuration
// (42x24 + 1x16) at 1024 elements.
func BenchmarkFig10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		reportPairs(b, "hazelhen-cray", spec.Topology{NodeSizes: bench.Fig10Shape()}, []int{1024},
			func(int) string { return "irregular" })
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
				b.ReportMetric(times[1].Us(), label+"_hy_vus")
				b.ReportMetric(times[0].Us(), label+"_pure_vus")
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
// flavors on one full node. A sync flavor is not a Query option, so it
// runs its own body over bench.Makespan.
func BenchmarkSyncFlavors(b *testing.B) {
	model := sim.HazelHenCray()
	topo := sim.MustUniform(1, bench.CoresPerNode)
	const per, iters = 8 * 512, 5
	for i := 0; i < b.N; i++ {
		for _, mode := range []hybrid.SyncMode{hybrid.SyncBarrier, hybrid.SyncP2P, hybrid.SyncSharedFlags} {
			t, err := bench.Makespan(model, topo, func(p *mpi.Proc) error {
				ctx, err := hybrid.New(p.CommWorld(), hybrid.WithSync(mode))
				if err != nil {
					return err
				}
				a, err := ctx.NewAllgatherer(per)
				if err != nil {
					return err
				}
				for j := 0; j < iters; j++ {
					if err := a.Allgather(); err != nil {
						return err
					}
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			if i == 0 {
				b.ReportMetric((t / iters).Us(), mode.String()+"_vus")
			}
		}
	}
}

// BenchmarkBPMFReal and BenchmarkSUMMAVerify are the two halves of the
// repository benchmark's fig-apps op as host-time benchmarks: the real
// Gibbs sampler at 1200x240, K=10, three iterations on 2x12 ranks, and
// the verified 4x4 multiply at block 64 on four nodes, Ori then Hy on a
// fresh real-data world each; each verified Run computes its 256x256
// reference product on host goroutines while the ranks run, so run it
// at -cpu 1 as well to see the multiply without that overlap.
// `-cpuprofile` / `-memprofile` on these is how the op's la, bpmf and
// summa time is read.
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
