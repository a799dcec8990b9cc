package bpmf

import (
	"fmt"
	"testing"

	"repro/internal/hybrid"
	"repro/internal/mpi"
	"repro/internal/sim"
)

func worldFor(t *testing.T, nodeSizes []int, real bool) *mpi.World {
	t.Helper()
	topo, err := sim.NewTopology(nodeSizes)
	if err != nil {
		t.Fatal(err)
	}
	var opts []mpi.Option
	if real {
		opts = append(opts, mpi.WithRealData())
	}
	w, err := mpi.NewWorld(sim.HazelHenCray(), topo, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func smallCfg(hy, real bool) Config {
	return Config{
		Users: 96, Items: 48, K: 4, AvgDeg: 6, Iters: 3,
		Seed: 11, Hybrid: hy, Real: real, RowOverheadFlops: 1e4,
	}
}

func TestSyntheticDataset(t *testing.T) {
	ds := Synthetic(100, 40, 5, 3, true)
	if ds.UserIdx == nil {
		t.Fatal("materialize flag ignored")
	}
	if ds.Users != 100 || ds.Items != 40 {
		t.Fatalf("dims %dx%d", ds.Users, ds.Items)
	}
	if ds.NNZ < 100 {
		t.Errorf("NNZ = %d, want >= users", ds.NNZ)
	}
	// CSR/CSC must agree.
	totU, totI := 0, 0
	for u := range ds.UserIdx {
		totU += len(ds.UserIdx[u])
		if len(ds.UserIdx[u]) != ds.UserDeg[u] {
			t.Errorf("user %d deg mismatch", u)
		}
	}
	for j := range ds.ItemIdx {
		totI += len(ds.ItemIdx[j])
		if len(ds.ItemIdx[j]) != ds.ItemDeg[j] {
			t.Errorf("item %d deg mismatch", j)
		}
	}
	if totU != ds.NNZ || totI != ds.NNZ {
		t.Errorf("entry counts: user %d item %d nnz %d", totU, totI, ds.NNZ)
	}
	// Determinism.
	ds2 := Synthetic(100, 40, 5, 3, true)
	if ds2.NNZ != ds.NNZ || ds2.UserVal[0][0] != ds.UserVal[0][0] {
		t.Error("dataset not reproducible")
	}
	// Shape-only mode carries degrees but no entries.
	shape := Synthetic(100, 40, 5, 3, false)
	if shape.UserIdx != nil {
		t.Error("shape-only dataset materialized")
	}
	if shape.NNZ != ds.NNZ {
		t.Error("shape-only NNZ differs")
	}
}

func TestShare(t *testing.T) {
	// Shares must partition [0, count) exactly.
	for _, tc := range []struct{ count, parts int }{{10, 3}, {7, 7}, {100, 8}, {5, 1}} {
		covered := 0
		prevHi := 0
		for p := 0; p < tc.parts; p++ {
			lo, hi := Share(tc.count, tc.parts, p)
			if lo != prevHi {
				t.Errorf("Share(%d,%d,%d): lo %d != prev hi %d", tc.count, tc.parts, p, lo, prevHi)
			}
			covered += hi - lo
			prevHi = hi
		}
		if covered != tc.count || prevHi != tc.count {
			t.Errorf("Share(%d,%d) covers %d", tc.count, tc.parts, covered)
		}
	}
}

func TestBPMFConvergesAndMatchesAcrossFlavors(t *testing.T) {
	// The Gibbs sampler must (a) reduce training RMSE and (b) produce
	// bit-identical samples in the pure and hybrid flavors.
	var checksums [2]float64
	var lastRMSE [2]float64
	for i, hy := range []bool{false, true} {
		w := worldFor(t, []int{4, 4}, true)
		res, err := Run(w, smallCfg(hy, true))
		if err != nil {
			t.Fatalf("hybrid=%v: %v", hy, err)
		}
		if len(res.RMSE) != 3 {
			t.Fatalf("hybrid=%v: got %d RMSE points", hy, len(res.RMSE))
		}
		if res.RMSE[len(res.RMSE)-1] >= res.RMSE[0] {
			t.Errorf("hybrid=%v: RMSE did not decrease: %v", hy, res.RMSE)
		}
		checksums[i] = res.Checksum
		lastRMSE[i] = res.RMSE[len(res.RMSE)-1]
	}
	if checksums[0] != checksums[1] {
		t.Errorf("pure and hybrid samples differ: %v vs %v", checksums[0], checksums[1])
	}
	if lastRMSE[0] != lastRMSE[1] {
		t.Errorf("pure and hybrid RMSE differ: %v vs %v", lastRMSE[0], lastRMSE[1])
	}
}

func TestBPMFPartitionInvariance(t *testing.T) {
	// The same configuration on different rank counts must sample the
	// same values (RNG streams are row-keyed, not rank-keyed).
	var sums []float64
	for _, shape := range [][]int{{4}, {2, 2}, {8}} {
		w := worldFor(t, shape, true)
		cfg := smallCfg(true, true)
		res, err := Run(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		sums = append(sums, res.Checksum)
	}
	if sums[0] != sums[1] || sums[1] != sums[2] {
		t.Errorf("samples depend on partitioning: %v", sums)
	}
}

func TestBPMFAllSyncModes(t *testing.T) {
	for _, mode := range []hybrid.SyncMode{hybrid.SyncBarrier, hybrid.SyncP2P, hybrid.SyncSharedFlags} {
		t.Run(mode.String(), func(t *testing.T) {
			w := worldFor(t, []int{3, 3}, true)
			cfg := smallCfg(true, true)
			cfg.Sync = mode
			res, err := Run(w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.RMSE[len(res.RMSE)-1] >= res.RMSE[0] {
				t.Errorf("%v: RMSE did not decrease: %v", mode, res.RMSE)
			}
		})
	}
}

func TestBPMFModelMode(t *testing.T) {
	// Size-only worlds charge time without data.
	w := worldFor(t, []int{12, 12}, false)
	cfg := smallCfg(false, false)
	cfg.Users, cfg.Items = 2400, 480
	res, err := Run(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Error("no virtual time charged")
	}
	if res.RMSE != nil {
		t.Error("RMSE produced without real data")
	}
}

func TestBPMFHybridBeatsPureAtScale(t *testing.T) {
	// The Fig. 12 direction: Ori/Hy ratio above 1 on a multi-node run.
	shape := make([]int, 4)
	for i := range shape {
		shape[i] = 12
	}
	times := map[bool]sim.Time{}
	for _, hy := range []bool{false, true} {
		w := worldFor(t, shape, false)
		cfg := smallCfg(hy, false)
		cfg.Users, cfg.Items = 4800, 960
		cfg.RowOverheadFlops = 1e5
		res, err := Run(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		times[hy] = res.Makespan
	}
	if times[true] >= times[false] {
		t.Errorf("hybrid (%v) should beat pure (%v) at 4x12 ranks", times[true], times[false])
	}
}

func TestBPMFValidation(t *testing.T) {
	w := worldFor(t, []int{4}, false)
	bad := []Config{
		{Users: 0, Items: 10, K: 2, AvgDeg: 2, Iters: 1},
		{Users: 10, Items: 10, K: 0, AvgDeg: 2, Iters: 1},
		{Users: 10, Items: 10, K: 2, AvgDeg: 0, Iters: 1},
		{Users: 10, Items: 10, K: 2, AvgDeg: 2, Iters: 0},
		{Users: 2, Items: 10, K: 2, AvgDeg: 2, Iters: 1},
		{Users: 10, Items: 10, K: 2, AvgDeg: 2, Iters: 1, Real: true},
	}
	for i, cfg := range bad {
		if _, err := Run(w, cfg); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestBPMFDeterministicTiming(t *testing.T) {
	run := func() sim.Time {
		w := worldFor(t, []int{6, 6}, false)
		cfg := smallCfg(true, false)
		cfg.Users, cfg.Items = 1200, 240
		res, err := Run(w, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	if a, b := run(), run(); a != b {
		t.Errorf("nondeterministic: %v vs %v", a, b)
	}
}

func TestRowFlopsMonotone(t *testing.T) {
	if rowFlops(8, 10, 0) <= rowFlops(8, 1, 0) {
		t.Error("rowFlops not monotone in degree")
	}
	if rowFlops(16, 1, 0) <= rowFlops(4, 1, 0) {
		t.Error("rowFlops not monotone in K")
	}
	if hyperFlops(100, 8) <= hyperFlops(10, 8) {
		t.Error("hyperFlops not monotone in rows")
	}
	if rowFlops(4, 1, 5e5)-rowFlops(4, 1, 0) != 5e5 {
		t.Error("overhead not additive")
	}
}

func TestRNGStreamsIndependent(t *testing.T) {
	a := rowRNG(1, 0, "items", 5).Float64()
	b := rowRNG(1, 0, "items", 6).Float64()
	c := rowRNG(1, 0, "users", 5).Float64()
	d := rowRNG(1, 1, "items", 5).Float64()
	vals := []float64{a, b, c, d}
	for i := 0; i < len(vals); i++ {
		for j := i + 1; j < len(vals); j++ {
			if vals[i] == vals[j] {
				t.Errorf("streams %d and %d collide", i, j)
			}
		}
	}
	if x, y := rowRNG(1, 0, "items", 5).Float64(), rowRNG(1, 0, "items", 5).Float64(); x != y {
		t.Error("stream not reproducible")
	}
}

func TestRoundUp(t *testing.T) {
	cases := [][3]int{{10, 4, 12}, {12, 4, 12}, {1, 7, 7}}
	for _, c := range cases {
		if got := roundUp(c[0], c[1]); got != c[2] {
			t.Errorf("roundUp(%d,%d) = %d, want %d", c[0], c[1], got, c[2])
		}
	}
}

func TestBPMFIrregularTopology(t *testing.T) {
	// Mirrors the Fig. 10 situation at application level: irregularly
	// populated nodes must still work in both flavors.
	for _, hy := range []bool{false, true} {
		t.Run(fmt.Sprintf("hybrid=%v", hy), func(t *testing.T) {
			w := worldFor(t, []int{3, 2, 1}, true)
			res, err := Run(w, smallCfg(hy, true))
			if err != nil {
				t.Fatal(err)
			}
			if len(res.RMSE) == 0 {
				t.Error("no RMSE recorded")
			}
		})
	}
}
