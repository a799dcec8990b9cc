package coll

import (
	"math/rand"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// Property-based cross-checks: every algorithm of a family must produce
// the same bytes as its reference implementation across randomized
// communicator shapes and message sizes. These sweeps catch index
// arithmetic mistakes (wraparounds, subtree bounds) that fixed-size
// tests miss.

// randShape draws a topology with 1-4 nodes of 1-6 ranks.
func randShape(r *rand.Rand) []int {
	nodes := 1 + r.Intn(4)
	shape := make([]int, nodes)
	for i := range shape {
		shape[i] = 1 + r.Intn(6)
	}
	return shape
}

func totalOf(shape []int) int {
	t := 0
	for _, s := range shape {
		t += s
	}
	return t
}

func TestQuickAllgatherFamilyAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 25; trial++ {
		shape := randShape(rng)
		n := totalOf(shape)
		per := 8 * (1 + rng.Intn(64))
		even := n%2 == 0
		pow2 := isPow2(n)
		runWorld(t, sim.Laptop(), shape, func(p *mpi.Proc) error {
			c := p.CommWorld()
			send := fill(p.Rank(), per/8)
			ref := mpi.Bytes(make([]byte, per*n))
			if err := allgatherAs("ring")(c, send, ref, per); err != nil {
				return err
			}
			check := func(name string, fn func() (mpi.Buf, error)) {
				got, err := fn()
				if err != nil {
					t.Errorf("trial %d %s (n=%d per=%d): %v", trial, name, n, per, err)
					return
				}
				for i := 0; i < per*n/8; i++ {
					if got.Float64At(i) != ref.Float64At(i) {
						t.Errorf("trial %d %s (n=%d per=%d): differs at %d", trial, name, n, per, i)
						return
					}
				}
			}
			check("bruck", func() (mpi.Buf, error) {
				out := mpi.Bytes(make([]byte, per*n))
				return out, allgatherBruck(c, send, out, per)
			})
			if pow2 {
				check("recdbl", func() (mpi.Buf, error) {
					out := mpi.Bytes(make([]byte, per*n))
					return out, allgatherAs("recdbl")(c, send, out, per)
				})
			}
			if even {
				check("neighbor", func() (mpi.Buf, error) {
					out := mpi.Bytes(make([]byte, per*n))
					return out, allgatherNeighbor(c, send, out, per)
				})
			}
			check("hier", func() (mpi.Buf, error) {
				h, err := NewHier(c)
				if err != nil {
					return mpi.Buf{}, err
				}
				out := mpi.Bytes(make([]byte, per*n))
				return out, h.Allgather(send, out, per)
			})
			check("auto", func() (mpi.Buf, error) {
				out := mpi.Bytes(make([]byte, per*n))
				return out, Allgather(c, send, out, per)
			})
			return nil
		})
	}
}

func TestQuickBcastFamilyAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		shape := randShape(rng)
		n := totalOf(shape)
		bytes := 8 * (1 + rng.Intn(256))
		root := rng.Intn(n)
		runWorld(t, sim.Laptop(), shape, func(p *mpi.Proc) error {
			c := p.CommWorld()
			mk := func() mpi.Buf {
				if p.Rank() == root {
					return fill(root, bytes/8)
				}
				return mpi.Bytes(make([]byte, bytes))
			}
			// Ordered: every rank must run the collectives in the
			// same sequence (a map's iteration order differs per
			// goroutine and would deadlock the job).
			algos := []struct {
				name string
				fn   func(mpi.Buf) error
			}{
				{"binomial", func(b mpi.Buf) error { return BcastBinomial(c, b, root) }},
				{"scag", func(b mpi.Buf) error { return BcastScatterAllgather(c, b, root) }},
				{"pipeline", func(b mpi.Buf) error { return BcastPipelined(c, b, root, 64) }},
				{"auto", func(b mpi.Buf) error { return Bcast(c, b, root) }},
				{"hier", func(b mpi.Buf) error {
					h, err := NewHier(c)
					if err != nil {
						return err
					}
					return h.Bcast(b, root)
				}},
			}
			for _, algo := range algos {
				name, fn := algo.name, algo.fn
				buf := mk()
				if err := fn(buf); err != nil {
					t.Errorf("trial %d %s (n=%d bytes=%d root=%d): %v", trial, name, n, bytes, root, err)
					return nil
				}
				for i := 0; i < bytes/8; i++ {
					want := float64(root*1_000_000 + i)
					if got := buf.Float64At(i); got != want {
						t.Errorf("trial %d %s: elem %d = %v, want %v", trial, name, i, got, want)
						return nil
					}
				}
			}
			return nil
		})
	}
}

func TestQuickAllreduceAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 20; trial++ {
		shape := randShape(rng)
		n := totalOf(shape)
		count := 1 + rng.Intn(200)
		runWorld(t, sim.Laptop(), shape, func(p *mpi.Proc) error {
			c := p.CommWorld()
			v := make([]float64, count)
			for i := range v {
				// Integer-valued so every summation order agrees
				// exactly.
				v[i] = float64((p.Rank()*count+i)%17 - 8)
			}
			send := mpi.FromFloat64s(v)
			want := make([]float64, count)
			for i := range want {
				for r := 0; r < n; r++ {
					want[i] += float64((r*count+i)%17 - 8)
				}
			}
			algos := []struct {
				name string
				fn   func(mpi.Buf) error
			}{
				{"recdbl", func(out mpi.Buf) error {
					return AllreduceRecDbl(c, send, out, count, mpi.Float64, mpi.OpSum)
				}},
				{"rabenseifner", func(out mpi.Buf) error {
					return AllreduceRabenseifner(c, send, out, count, mpi.Float64, mpi.OpSum)
				}},
				{"auto", func(out mpi.Buf) error {
					return Allreduce(c, send, out, count, mpi.Float64, mpi.OpSum)
				}},
			}
			for _, algo := range algos {
				name, fn := algo.name, algo.fn
				out := mpi.Bytes(make([]byte, 8*count))
				if err := fn(out); err != nil {
					t.Errorf("trial %d %s (n=%d count=%d): %v", trial, name, n, count, err)
					return nil
				}
				for i := 0; i < count; i++ {
					if got := out.Float64At(i); got != want[i] {
						t.Errorf("trial %d %s: elem %d = %v, want %v", trial, name, i, got, want[i])
						return nil
					}
				}
			}
			return nil
		})
	}
}

func TestQuickScanConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 15; trial++ {
		shape := randShape(rng)
		n := totalOf(shape)
		runWorld(t, sim.Laptop(), shape, func(p *mpi.Proc) error {
			c := p.CommWorld()
			send := mpi.FromFloat64s([]float64{float64(p.Rank() + 1)})
			inc := mpi.Bytes(make([]byte, 8))
			exc := mpi.FromFloat64s([]float64{0})
			if err := Scan(c, send, inc, 1, mpi.Float64, mpi.OpSum); err != nil {
				return err
			}
			if err := Exscan(c, send, exc, 1, mpi.Float64, mpi.OpSum); err != nil {
				return err
			}
			// Inclusive = exclusive + own contribution.
			if p.Rank() > 0 {
				if inc.Float64At(0) != exc.Float64At(0)+float64(p.Rank()+1) {
					t.Errorf("trial %d (n=%d) rank %d: scan %v, exscan %v", trial, n,
						p.Rank(), inc.Float64At(0), exc.Float64At(0))
				}
			}
			return nil
		})
	}
}
