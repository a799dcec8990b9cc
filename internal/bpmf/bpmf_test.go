package bpmf

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"slices"
	"testing"

	"repro/internal/hybrid"
	"repro/internal/la"
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

// datasetHash digests every field of a Dataset (lengths included, so
// ragged rows cannot trade entries).
func datasetHash(d *Dataset) uint64 {
	h := fnv.New64a()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	ints := func(v []int) {
		put(uint64(len(v)))
		for _, x := range v {
			put(uint64(x))
		}
	}
	idx := func(v [][]int32) {
		put(uint64(len(v)))
		for _, row := range v {
			put(uint64(len(row)))
			for _, x := range row {
				put(uint64(x))
			}
		}
	}
	val := func(v [][]float64) {
		put(uint64(len(v)))
		for _, row := range v {
			put(uint64(len(row)))
			for _, x := range row {
				put(math.Float64bits(x))
			}
		}
	}
	put(uint64(d.Users))
	put(uint64(d.Items))
	put(uint64(d.NNZ))
	ints(d.UserDeg)
	ints(d.ItemDeg)
	idx(d.UserIdx)
	val(d.UserVal)
	idx(d.ItemIdx)
	val(d.ItemVal)
	return h.Sum64()
}

// TestSyntheticPinned holds Synthetic to the datasets it built before it
// filled arenas: virtual time is charged from these degrees, so not one
// entry may move.
func TestSyntheticPinned(t *testing.T) {
	for _, c := range []struct {
		seed        int64
		materialize bool
		want        uint64
	}{
		{1, true, 0xe67f76bcff16c4ea},
		{1, false, 0x6213c6fbc2fb1211},
		{7, true, 0xe59b5e428981cf27},
		{7, false, 0x506d7e75ec573993},
	} {
		if got := datasetHash(Synthetic(1200, 240, 4, c.seed, c.materialize)); got != c.want {
			t.Errorf("Synthetic(1200, 240, 4, %d, %v) hashes to %#x, want %#x", c.seed, c.materialize, got, c.want)
		}
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

// TestBPMFAllSyncModes runs Hy_BPMF under each sync flavor and holds it
// to Ori_BPMF's chain on the same world: one rank per phase builds the
// hyperparameter draw every rank samples from, out of its node's shared
// segment, so a flavor whose gather lets that rank read the segment
// before the bridge exchange has filled it shows here as a different
// checksum.
func TestBPMFAllSyncModes(t *testing.T) {
	w := worldFor(t, []int{3, 3}, true)
	ori, err := Run(w, smallCfg(false, true))
	if err != nil {
		t.Fatal(err)
	}
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
			if res.Checksum != ori.Checksum || !slices.Equal(res.RMSE, ori.RMSE) {
				t.Errorf("%v: Hy checksum %v, RMSE %v; Ori checksum %v, RMSE %v", mode, res.Checksum, res.RMSE, ori.Checksum, ori.RMSE)
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

// TestSampledBitsPinned pins every sampled value a real run reports, as
// float64 bits, at the benchmark's fig-apps configuration (2x12 ranks,
// 1200x240, K = 10, three iterations) for two seeds, in both flavors: a
// kernel change in la or in the row draw that is meant to be exact must
// leave the checksum and each RMSE entry bit for bit where they are.
func TestSampledBitsPinned(t *testing.T) {
	for _, c := range []struct {
		seed     int64
		checksum uint64
		rmse     [3]uint64
	}{
		{1, 0xc050803931be9095, [3]uint64{0x3fecd5e3187377bd, 0x3fea2129d5b80602, 0x3fe81c123abd2520}},
		{7, 0x405c9cf55577c46f, [3]uint64{0x3fedeb4448c702a4, 0x3fea2048a841ea8e, 0x3fe83d5c5c32acac}},
	} {
		for _, hy := range []bool{false, true} {
			cfg := Config{Users: 1200, Items: 240, K: 10, AvgDeg: 4, Iters: 3, Seed: c.seed, Hybrid: hy, Real: true, RowOverheadFlops: 3e6}
			w := worldFor(t, []int{12, 12}, true)
			res, err := Run(w, cfg)
			w.Close()
			if err != nil {
				t.Fatal(err)
			}
			if got := math.Float64bits(res.Checksum); got != c.checksum {
				t.Errorf("seed %d hybrid=%v: checksum %#x (%v), want %#x", c.seed, hy, got, res.Checksum, c.checksum)
			}
			for i, want := range c.rmse {
				if got := math.Float64bits(res.RMSE[i]); got != want {
					t.Errorf("seed %d hybrid=%v: RMSE[%d] %#x (%v), want %#x", c.seed, hy, i, got, res.RMSE[i], want)
				}
			}
		}
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

// firstDraw is the first uniform of one key's stream.
func firstDraw(s *sampler, seed int64, iter int, name string, row int) float64 {
	s.reseed(seed, iter, name, row)
	return s.rng.Float64()
}

func TestRNGStreamsIndependent(t *testing.T) {
	s := newSampler(4)
	a := firstDraw(s, 1, 0, "items", 5)
	b := firstDraw(s, 1, 0, "items", 6)
	c := firstDraw(s, 1, 0, "users", 5)
	d := firstDraw(s, 1, 1, "items", 5)
	vals := []float64{a, b, c, d}
	for i := 0; i < len(vals); i++ {
		for j := i + 1; j < len(vals); j++ {
			if vals[i] == vals[j] {
				t.Errorf("streams %d and %d collide", i, j)
			}
		}
	}
	if x, y := firstDraw(s, 1, 0, "items", 5), firstDraw(newSampler(4), 1, 0, "items", 5); x != y || x != a {
		t.Error("stream not reproducible")
	}
}

// TestRowStreamsSound checks what a counter-keyed generator must get
// right: the streams of consecutive row keys, which differ in one low
// bit before mixing, are standard normal and uncorrelated with their
// neighbours.
func TestRowStreamsSound(t *testing.T) {
	const rows, k = 10000, 10
	s := newSampler(k)
	draws := make([]float64, rows*k)
	for r := 0; r < rows; r++ {
		s.reseed(1, 0, "items", r)
		for c := 0; c < k; c++ {
			draws[r*k+c] = s.rng.NormFloat64()
		}
	}
	sum, sumSq, cross := 0.0, 0.0, 0.0
	for i, x := range draws {
		sum += x
		sumSq += x * x
		if i >= k {
			cross += x * draws[i-k] // same column, previous row
		}
	}
	n := float64(len(draws))
	mean := sum / n
	variance := sumSq/n - mean*mean
	corr := (cross/(n-k) - mean*mean) / variance
	if math.Abs(mean) >= 0.02 || math.Abs(variance-1) >= 0.03 || math.Abs(corr) >= 0.03 {
		t.Errorf("first %d normals of %d consecutive row keys: mean %.4f, variance %.4f, lag-1 cross-row correlation %.4f", k, rows, mean, variance, corr)
	}
}

func TestSampleRowAllocatesNothing(t *testing.T) {
	const k, n = 10, 40
	s := newSampler(k)
	other := make([]float64, n*k)
	for i := range other {
		other[i] = math.Sin(float64(i))
	}
	h := hyper{lambda: la.NewMat(k, k), lmu: make([]float64, k)}
	for i := 0; i < k; i++ {
		h.lambda.Set(i, i, 2)
	}
	idx := []int32{3, 17, 31, 8}
	val := []float64{0.5, -1, 2, 0.25}
	allocs := testing.AllocsPerRun(100, func() {
		s.reseed(1, 0, "items", 5)
		if err := s.sampleRow(h, other, idx, val); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("sampleRow allocates %v objects per row, want 0", allocs)
	}
}

// TestRunAllocationPin pins what one real run at the benchmark's
// fig-apps configuration allocates: 2x12 ranks sample 4,320 rows and
// fill 1,440 initial rows, and the world draws 6 hyperparameter sets,
// one per phase. 489 to 539 objects measured in either flavor: about
// 170 for the 24 sampler workspaces (7 each), 170 for the six draws (28
// small matrices and vectors each), the rest the communicator set-up,
// the phase buffers and message records. With every rank repeating the
// draw it was 4,230 to 4,310; with a generator seeded and eleven slices
// made per row, 68,300 to 68,500.
func TestRunAllocationPin(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	const sampledRows, pin = 3 * (1200 + 240), 700
	for _, hy := range []bool{false, true} {
		cfg := Config{Users: 1200, Items: 240, K: 10, AvgDeg: 4, Iters: 3, Seed: 1, Hybrid: hy, Real: true, RowOverheadFlops: 3e6}
		run := func() {
			w := worldFor(t, []int{12, 12}, true)
			defer w.Close()
			if _, err := Run(w, cfg); err != nil {
				t.Fatal(err)
			}
		}
		run() // fill pools and the geometry cache
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run()
		runtime.ReadMemStats(&after)
		if objects := after.Mallocs - before.Mallocs; objects > pin {
			t.Errorf("hybrid=%v: bpmf.Run allocates %d objects (%.1f per sampled row), want at most %d", hy, objects, float64(objects)/sampledRows, pin)
		}
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
