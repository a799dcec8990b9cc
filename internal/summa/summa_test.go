package summa

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/coll"
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

func TestSummaVerifyPure(t *testing.T) {
	for _, tc := range []struct {
		grid  int
		shape []int
	}{
		{2, []int{4}},
		{3, []int{9}},
		{4, []int{8, 8}},
	} {
		t.Run(fmt.Sprintf("grid%d", tc.grid), func(t *testing.T) {
			w := worldFor(t, tc.shape, true)
			res, err := Run(w, Config{GridDim: tc.grid, BlockDim: 6, Verify: true})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Verified {
				t.Error("pure SUMMA result not verified")
			}
			if res.Makespan <= 0 {
				t.Error("no virtual time elapsed")
			}
		})
	}
}

func TestSummaVerifyHybrid(t *testing.T) {
	for _, mode := range []hybrid.SyncMode{hybrid.SyncBarrier, hybrid.SyncP2P, hybrid.SyncSharedFlags} {
		for _, tc := range []struct {
			grid  int
			shape []int
		}{
			{2, []int{4}},
			{4, []int{8, 8}},
			{4, []int{6, 6, 4}},
		} {
			t.Run(fmt.Sprintf("%v/grid%d", mode, tc.grid), func(t *testing.T) {
				w := worldFor(t, tc.shape, true)
				res, err := Run(w, Config{GridDim: tc.grid, BlockDim: 5, Hybrid: true, Verify: true, Sync: mode})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Verified {
					t.Error("hybrid SUMMA result not verified")
				}
			})
		}
	}
}

// TestSummaHybridMultipliesInPlace runs Hy_SUMMA's verification under
// every sync flavor at a block size whose panels have a float64 view,
// and checks on the same Bcaster set-up that the matrix localUpdate
// multiplies is the node's shared panel itself, not a copy of it.
func TestSummaHybridMultipliesInPlace(t *testing.T) {
	const b = 8
	for _, mode := range []hybrid.SyncMode{hybrid.SyncBarrier, hybrid.SyncP2P, hybrid.SyncSharedFlags} {
		t.Run(mode.String(), func(t *testing.T) {
			w := worldFor(t, []int{8, 8}, true)
			res, err := Run(w, Config{GridDim: 4, BlockDim: b, Hybrid: true, Verify: true, Sync: mode})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Verified {
				t.Error("hybrid SUMMA result not verified")
			}
			err = w.Run(func(p *mpi.Proc) error {
				ctx, err := hybrid.New(p.CommWorld(), hybrid.WithSync(mode))
				if err != nil {
					return err
				}
				bc, err := ctx.NewBcaster(8 * b * b)
				if err != nil {
					return err
				}
				if got, shared := unsafe.Pointer(&panelMat(bc.Buffer(), b).Data[0]), unsafe.Pointer(&bc.Buffer().Raw()[0]); got != shared {
					return fmt.Errorf("rank %d multiplies out of %p, the shared panel is at %p", p.Rank(), got, shared)
				}
				return nil
			})
			if err != nil {
				t.Error(err)
			}
		})
	}
}

// misaligned is a b x b panel that starts off an 8-byte boundary, so no
// float64 view of it exists. A tiny allocation need not start on an
// 8-byte boundary (under the race detector it may not), so the offset is
// picked against the address.
func misaligned(t *testing.T, b int) mpi.Buf {
	t.Helper()
	raw := make([]byte, 8*b*b+2)
	off := 1
	if uintptr(unsafe.Pointer(&raw[off]))%8 == 0 {
		off = 2
	}
	buf := mpi.Bytes(raw).Slice(off, 8*b*b)
	if buf.Float64sView() != nil {
		t.Fatal("a panel at an odd offset has a float64 view")
	}
	return buf
}

// TestLocalUpdateCopiesMisalignedPanel hands localUpdate panels that
// start at an odd byte offset, so no float64 view of them exists, and
// expects the product the aligned panels give, bit for bit.
func TestLocalUpdateCopiesMisalignedPanel(t *testing.T) {
	const b = 6
	aBlock, bBlock := la.NewMat(b, b), la.NewMat(b, b)
	fillA(aBlock, 3, 0, 0, b)
	fillB(bBlock, 3, 0, 0, b)
	shifted := func(m *la.Mat) mpi.Buf {
		buf := misaligned(t, b)
		buf.PutFloat64s(0, m.Data)
		return buf
	}
	w := worldFor(t, []int{1}, true)
	cfg := Config{GridDim: 1, BlockDim: b, Verify: true}
	var products [2]*la.Mat
	for i, panels := range [][2]mpi.Buf{
		{mpi.FromFloat64s(aBlock.Data), mpi.FromFloat64s(bBlock.Data)},
		{shifted(aBlock), shifted(bBlock)},
	} {
		products[i] = la.NewMat(b, b)
		err := w.Run(func(p *mpi.Proc) error {
			return localUpdate(p, cfg, products[i], panels[0], panels[1], b)
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(products[0].Data, products[1].Data) {
		t.Errorf("copied panels give %v, viewed panels %v", products[1].Data, products[0].Data)
	}
	if products[0].Data[0] == 0 {
		t.Error("no product computed")
	}
}

// TestFillBlocksMatchesTrig holds fillA's and fillB's table lookups to
// the direct expressions they replace, bit for bit, at an offset corner
// of a larger matrix.
func TestFillBlocksMatchesTrig(t *testing.T) {
	for _, b := range []int{1, 7, 64} {
		for rank := 0; rank < 16; rank++ {
			const row0, col0 = 2, 3
			a, bm := la.NewMat(b+row0, b+col0+1), la.NewMat(b+row0, b+col0+1)
			fillA(a, rank, row0, col0, b)
			fillB(bm, rank, row0, col0, b)
			for i := 0; i < b; i++ {
				for j := 0; j < b; j++ {
					wantA := math.Sin(float64(rank*31+i*7+j)) * 0.5
					wantB := math.Cos(float64(rank*17+i*3+j*5)) * 0.5
					if got := a.At(row0+i, col0+j); math.Float64bits(got) != math.Float64bits(wantA) {
						t.Fatalf("b=%d rank %d: A[%d][%d] = %v, want %v", b, rank, i, j, got, wantA)
					}
					if got := bm.At(row0+i, col0+j); math.Float64bits(got) != math.Float64bits(wantB) {
						t.Fatalf("b=%d rank %d: B[%d][%d] = %v, want %v", b, rank, i, j, got, wantB)
					}
				}
			}
		}
	}
}

// TestOperandFillIntoUnviewedPanel fills both operands of every rank of
// a 4x4 grid into panels with a float64 view and into misaligned ones,
// which take fillPanel's build-and-store fallback, and expects the same
// bytes.
func TestOperandFillIntoUnviewedPanel(t *testing.T) {
	for _, b := range []int{1, 6, 64} {
		for rank := 0; rank < 16; rank++ {
			for name, fill := range map[string]func(*la.Mat, int, int, int, int){"A": fillA, "B": fillB} {
				viewed := mpi.Bytes(make([]byte, 8*b*b))
				if viewed.Float64sView() == nil {
					t.Skip("no float64 view on this host")
				}
				unviewed := misaligned(t, b)
				fillPanel(viewed, fill, rank, b)
				fillPanel(unviewed, fill, rank, b)
				if !slices.Equal(viewed.Raw(), unviewed.Raw()) {
					t.Fatalf("b=%d rank %d: %s filled through the fallback differs from the viewed fill", b, rank, name)
				}
				if b > 1 && slices.Equal(viewed.Raw(), make([]byte, 8*b*b)) {
					t.Fatalf("b=%d rank %d: %s left the panel zero", b, rank, name)
				}
			}
		}
	}
}

func TestSummaPureHybridSameProduct(t *testing.T) {
	// Both flavors must compute the same (correct) product — the
	// verification already pins them to the reference product; this
	// locks in that both pass on an irregular topology too.
	w := worldFor(t, []int{5, 4}, true)
	for _, hy := range []bool{false, true} {
		res, err := Run(w, Config{GridDim: 3, BlockDim: 4, Hybrid: hy, Verify: true})
		if err != nil {
			t.Fatalf("hybrid=%v: %v", hy, err)
		}
		if !res.Verified {
			t.Errorf("hybrid=%v: not verified", hy)
		}
	}
}

func TestSummaConfigValidation(t *testing.T) {
	w := worldFor(t, []int{4}, false)
	if _, err := Run(w, Config{GridDim: 3, BlockDim: 4}); err == nil {
		t.Error("grid/world mismatch accepted")
	}
	if _, err := Run(w, Config{GridDim: 2, BlockDim: 0}); err == nil {
		t.Error("zero block accepted")
	}
	if _, err := Run(w, Config{GridDim: 0, BlockDim: 4}); err == nil {
		t.Error("zero grid accepted")
	}
	if _, err := Run(w, Config{GridDim: 2, BlockDim: 4, Verify: true}); err == nil {
		t.Error("verify on size-only world accepted")
	}
}

func TestSummaHybridWinsOnOneNode(t *testing.T) {
	// The Fig. 11a story: tiny blocks, everything on one node — the
	// hybrid version should win by a large factor (paper: up to ~5x).
	w := worldFor(t, []int{16}, false)
	pure, err := Run(w, Config{GridDim: 4, BlockDim: 8})
	if err != nil {
		t.Fatal(err)
	}
	hy, err := Run(w, Config{GridDim: 4, BlockDim: 8, Hybrid: true})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(pure.Makespan) / float64(hy.Makespan)
	if ratio <= 1.5 {
		t.Errorf("single-node 8x8 ratio = %.2f, want clearly > 1.5 (pure %v, hy %v)",
			ratio, pure.Makespan, hy.Makespan)
	}
}

func TestSummaRatioShrinksWithBlockSize(t *testing.T) {
	// Fig. 11a-d: the hybrid advantage shrinks as compute grows with
	// the block size.
	w := worldFor(t, []int{8, 8}, false)
	ratio := func(b int) float64 {
		pure, err := Run(w, Config{GridDim: 4, BlockDim: b})
		if err != nil {
			t.Fatal(err)
		}
		hy, err := Run(w, Config{GridDim: 4, BlockDim: b, Hybrid: true})
		if err != nil {
			t.Fatal(err)
		}
		return float64(pure.Makespan) / float64(hy.Makespan)
	}
	small := ratio(8)
	large := ratio(256)
	if small <= large {
		t.Errorf("ratio should shrink with block size: 8x8 %.3f vs 256x256 %.3f", small, large)
	}
	if large < 1.0 {
		t.Errorf("hybrid should not lose at 256x256: ratio %.3f", large)
	}
}

func TestSummaDeterministic(t *testing.T) {
	w := worldFor(t, []int{5, 4}, false)
	a, err := Run(w, Config{GridDim: 3, BlockDim: 32, Hybrid: true})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(w, Config{GridDim: 3, BlockDim: 32, Hybrid: true})
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan {
		t.Errorf("nondeterministic makespan: %v vs %v", a.Makespan, b.Makespan)
	}
}

// TestVerifyCatchesOneUlp plants a one-ulp error in one element of the
// C gathered at rank 0 and expects Run to name that element, for both
// flavors.
func TestVerifyCatchesOneUlp(t *testing.T) {
	const dim, b, rank, i, j = 3, 4, 5, 2, 1
	t.Cleanup(func() { gather = coll.Gather })
	gather = func(c *mpi.Comm, send, recv mpi.Buf, per, root int) error {
		if err := coll.Gather(c, send, recv, per, root); err != nil || c.Rank() != root {
			return err
		}
		k := (rank*b+i)*b + j
		recv.PutFloat64(k, math.Nextafter(recv.Float64At(k), math.Inf(1)))
		return nil
	}
	want := fmt.Sprintf("C[%d][%d]", rank/dim*b+i, rank%dim*b+j)
	for _, hy := range []bool{false, true} {
		w := worldFor(t, []int{5, 4}, true)
		res, err := Run(w, Config{GridDim: dim, BlockDim: b, Hybrid: hy, Verify: true})
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("hybrid=%v: err = %v, want one naming %s", hy, err, want)
		}
		if res.Verified {
			t.Errorf("hybrid=%v: a wrong product verified", hy)
		}
	}
}

// settled fails if a reference goroutine is still at work, filling,
// multiplying or waiting at the fill barrier, and then waits until the
// goroutine count is back to baseline: a goroutine that has signalled
// its WaitGroup may still be on its way out, inside that Done, so its
// stack is not held against it and the count is polled for a while.
func settled(t *testing.T, baseline int) {
	t.Helper()
	stacks := make([]byte, 1<<20)
	stacks = stacks[:runtime.Stack(stacks, true)]
	for _, g := range strings.Split(string(stacks), "\n\n") {
		if strings.Contains(g, "created by repro/internal/summa.startReference") &&
			(strings.Contains(g, "la.Gemm") || strings.Contains(g, "summa.fill") || strings.Contains(g, "sync.(*WaitGroup).Wait")) {
			t.Errorf("a reference goroutine is still at work after Run:\n%s", g)
		}
	}
	deadline := time.Now().Add(time.Second)
	n := runtime.NumGoroutine()
	for n > baseline && time.Now().Before(deadline) {
		runtime.Gosched()
		n = runtime.NumGoroutine()
	}
	if n > baseline {
		t.Errorf("%d goroutines outlive Run (baseline %d)", n-baseline, baseline)
	}
}

// TestVerifiedRunLeavesNoGoroutine checks that the reference product's
// goroutines end with Run: after a verified Run, after one that fails
// on a closed world, and after two verified Runs on separate worlds at
// once. The block is fig-apps' 64, so the reference is still working
// when a Run that forgot to wait returned.
func TestVerifiedRunLeavesNoGoroutine(t *testing.T) {
	cfg := Config{GridDim: 4, BlockDim: 64, Verify: true}
	t.Run("verified", func(t *testing.T) {
		w := worldFor(t, []int{8, 8}, true)
		defer w.Close()
		baseline := runtime.NumGoroutine()
		res, err := Run(w, cfg)
		if err != nil || !res.Verified {
			t.Fatalf("verified=%v, err %v", res.Verified, err)
		}
		settled(t, baseline)
	})
	t.Run("closed", func(t *testing.T) {
		w := worldFor(t, []int{8, 8}, true)
		w.Close()
		baseline := runtime.NumGoroutine()
		if _, err := Run(w, cfg); !errors.Is(err, mpi.ErrClosed) {
			t.Fatalf("Run on a closed world: err = %v, want mpi.ErrClosed", err)
		}
		settled(t, baseline)
	})
	t.Run("concurrent", func(t *testing.T) {
		worlds := []*mpi.World{worldFor(t, []int{8, 8}, true), worldFor(t, []int{16}, true)}
		baseline := runtime.NumGoroutine()
		errs := make([]error, len(worlds))
		var wg sync.WaitGroup
		for k, w := range worlds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := Run(w, Config{GridDim: 4, BlockDim: 64, Hybrid: k == 1, Verify: true})
				if err == nil && !res.Verified {
					err = errors.New("not verified")
				}
				errs[k] = err
			}()
		}
		wg.Wait()
		for k, err := range errs {
			if err != nil {
				t.Errorf("world %d: %v", k, err)
			}
		}
		settled(t, baseline)
		for _, w := range worlds {
			w.Close()
		}
	})
}

// TestVerifiedRunAllocationPin pins what one verified run at the
// benchmark's fig-apps point allocates (4x4 grid, b=64, four nodes of
// four, GOMAXPROCS 2, so two reference bands), averaged over five runs
// on fresh worlds. What the run owns: the 16 ranks' two panels each
// (1 MB), the gather's send blocks, receive buffer and interior scratch
// (1.7 MB), the reference's B, C and two A bands (1.3 MB) and the fill
// tables. Measured over 24 averages: 4.48-4.55 MB in 349-384 objects
// for Ori, 4.75-4.85 MB in 668-734 for Hy; the ceilings sit about 2%
// above the mean bytes and the highest object count (pool refills after
// a GC move the count by a few percent). It was 7.21 MB in 450 objects
// and 7.51 MB in 790 while every rank kept private A, B and C blocks
// and copied them into its panels and send block, the reference held
// all of A, and the binomial gather staged every range in scratch.
func TestVerifiedRunAllocationPin(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, tc := range []struct {
		hybrid         bool
		bytes, objects uint64
	}{
		{false, 4_620_000, 395},
		{true, 4_930_000, 750},
	} {
		cfg := Config{GridDim: 4, BlockDim: 64, Hybrid: tc.hybrid, Verify: true}
		measure := func() (bytes, objects uint64) {
			w := worldFor(t, []int{4, 4, 4, 4}, true)
			defer w.Close()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			res, err := Run(w, cfg)
			runtime.ReadMemStats(&after)
			if err != nil || !res.Verified {
				t.Fatalf("hybrid=%v: verified=%v, err %v", tc.hybrid, res.Verified, err)
			}
			return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
		}
		measure() // fill pools and the geometry cache
		const runs = 5
		var bytes, objects uint64
		for i := 0; i < runs; i++ {
			b, o := measure()
			bytes, objects = bytes+b, objects+o
		}
		bytes, objects = bytes/runs, objects/runs
		t.Logf("hybrid=%v: %d bytes, %d objects per verified run", tc.hybrid, bytes, objects)
		if bytes > tc.bytes || objects > tc.objects {
			t.Errorf("hybrid=%v: a verified run allocates %d bytes in %d objects, pinned at %d and %d",
				tc.hybrid, bytes, objects, tc.bytes, tc.objects)
		}
	}
}
