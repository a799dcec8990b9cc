package coll

import (
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

func TestScanInclusive(t *testing.T) {
	for _, n := range []int{1, 2, 3, 5, 8} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			const elems = 4
			runWorld(t, sim.Laptop(), []int{n}, func(p *mpi.Proc) error {
				c := p.CommWorld()
				v := make([]float64, elems)
				for i := range v {
					v[i] = float64(p.Rank() + 1 + i)
				}
				recv := mpi.Bytes(make([]byte, 8*elems))
				if err := Scan(c, mpi.FromFloat64s(v), recv, elems, mpi.Float64, mpi.OpSum); err != nil {
					return err
				}
				for i := 0; i < elems; i++ {
					want := 0.0
					for r := 0; r <= p.Rank(); r++ {
						want += float64(r + 1 + i)
					}
					if got := recv.Float64At(i); got != want {
						t.Errorf("rank %d elem %d = %v, want %v", p.Rank(), i, got, want)
						return nil
					}
				}
				return nil
			})
		})
	}
}

func TestExscan(t *testing.T) {
	for _, n := range []int{2, 4, 7} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			runWorld(t, sim.Laptop(), []int{n}, func(p *mpi.Proc) error {
				c := p.CommWorld()
				send := mpi.FromFloat64s([]float64{float64(p.Rank() + 1)})
				recv := mpi.FromFloat64s([]float64{-99})
				if err := Exscan(c, send, recv, 1, mpi.Float64, mpi.OpSum); err != nil {
					return err
				}
				if p.Rank() == 0 {
					// Undefined on rank 0: must be untouched.
					if recv.Float64At(0) != -99 {
						t.Errorf("rank 0 buffer touched: %v", recv.Float64At(0))
					}
					return nil
				}
				want := 0.0
				for r := 0; r < p.Rank(); r++ {
					want += float64(r + 1)
				}
				if got := recv.Float64At(0); got != want {
					t.Errorf("rank %d = %v, want %v", p.Rank(), got, want)
				}
				return nil
			})
		})
	}
}

func TestScanMaxOp(t *testing.T) {
	runWorld(t, sim.Laptop(), []int{6}, func(p *mpi.Proc) error {
		c := p.CommWorld()
		// Values zig-zag so the running max is interesting.
		val := float64((p.Rank() * 7) % 5)
		recv := mpi.Bytes(make([]byte, 8))
		if err := Scan(c, mpi.FromFloat64s([]float64{val}), recv, 1, mpi.Float64, mpi.OpMax); err != nil {
			return err
		}
		want := 0.0
		for r := 0; r <= p.Rank(); r++ {
			if v := float64((r * 7) % 5); v > want {
				want = v
			}
		}
		if got := recv.Float64At(0); got != want {
			t.Errorf("rank %d max = %v, want %v", p.Rank(), got, want)
		}
		return nil
	})
}

func TestReduceScatterBlock(t *testing.T) {
	for _, n := range []int{2, 3, 4, 6} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			const elems = 3
			runWorld(t, sim.Laptop(), []int{n}, func(p *mpi.Proc) error {
				c := p.CommWorld()
				// Block b element i of rank r = r*100 + b*10 + i.
				v := make([]float64, elems*n)
				for b := 0; b < n; b++ {
					for i := 0; i < elems; i++ {
						v[b*elems+i] = float64(p.Rank()*100 + b*10 + i)
					}
				}
				recv := mpi.Bytes(make([]byte, 8*elems))
				if err := ReduceScatterBlock(c, mpi.FromFloat64s(v), recv, elems, mpi.Float64, mpi.OpSum); err != nil {
					return err
				}
				for i := 0; i < elems; i++ {
					want := 0.0
					for r := 0; r < n; r++ {
						want += float64(r*100 + p.Rank()*10 + i)
					}
					if got := recv.Float64At(i); got != want {
						t.Errorf("rank %d elem %d = %v, want %v", p.Rank(), i, got, want)
						return nil
					}
				}
				return nil
			})
		})
	}
}

func TestReduceScatterValidation(t *testing.T) {
	runWorld(t, sim.Laptop(), []int{2}, func(p *mpi.Proc) error {
		c := p.CommWorld()
		if err := ReduceScatterBlock(c, mpi.Sized(8), mpi.Sized(8), 1, mpi.Float64, mpi.OpSum); err == nil {
			t.Error("short send buffer accepted")
		}
		if err := ReduceScatterBlock(c, mpi.Sized(16), mpi.Sized(4), 1, mpi.Float64, mpi.OpSum); err == nil {
			t.Error("short recv buffer accepted")
		}
		return nil
	})
}

func TestAllgatherNeighbor(t *testing.T) {
	for _, n := range []int{2, 4, 6, 8, 10} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			const elems = 5
			runWorld(t, sim.Laptop(), []int{n}, func(p *mpi.Proc) error {
				c := p.CommWorld()
				recv := mpi.Bytes(make([]byte, 8*elems*n))
				if err := allgatherNeighbor(c, fill(p.Rank(), elems), recv, 8*elems); err != nil {
					return err
				}
				checkGathered(t, "neighbor", recv, n, elems)
				return nil
			})
		})
	}
}

func TestAllgatherNeighborRejectsOdd(t *testing.T) {
	runWorld(t, sim.Laptop(), []int{3}, func(p *mpi.Proc) error {
		c := p.CommWorld()
		if err := allgatherNeighbor(c, fill(p.Rank(), 1), mpi.Sized(24), 8); err == nil {
			t.Error("odd size accepted")
		}
		return nil
	})
}

func TestMultiLeaderAllgather(t *testing.T) {
	for _, tc := range []struct {
		shape   []int
		leaders int
	}{
		{[]int{4, 4}, 1},
		{[]int{4, 4}, 2},
		{[]int{6, 6}, 3},
		{[]int{6, 6, 6}, 2},
		{[]int{8}, 4},
		{[]int{4, 4}, 99}, // clamped to node size
	} {
		t.Run(fmt.Sprintf("%v/L%d", tc.shape, tc.leaders), func(t *testing.T) {
			n := 0
			for _, s := range tc.shape {
				n += s
			}
			const elems = 7
			runWorld(t, sim.Laptop(), tc.shape, func(p *mpi.Proc) error {
				m, err := NewMultiLeaderHier(p.CommWorld(), tc.leaders)
				if err != nil {
					return err
				}
				recv := mpi.Bytes(make([]byte, 8*elems*n))
				if err := m.Allgather(fill(p.Rank(), elems), recv, 8*elems); err != nil {
					return err
				}
				checkGathered(t, "multileader", recv, n, elems)
				return nil
			})
		})
	}
}

func TestMultiLeaderRejects(t *testing.T) {
	// Irregular node population is rejected.
	runWorld(t, sim.Laptop(), []int{4, 2}, func(p *mpi.Proc) error {
		if _, err := NewMultiLeaderHier(p.CommWorld(), 2); err == nil {
			t.Error("irregular population accepted")
		}
		return nil
	})
	runWorld(t, sim.Laptop(), []int{4}, func(p *mpi.Proc) error {
		if _, err := NewMultiLeaderHier(p.CommWorld(), 0); err == nil {
			t.Error("zero leaders accepted")
		}
		return nil
	})
}

func TestGroupBoundsPartition(t *testing.T) {
	for _, tc := range []struct{ size, groups int }{{24, 4}, {7, 3}, {6, 6}, {10, 4}} {
		covered := 0
		for g := 0; g < tc.groups; g++ {
			lo, hi := groupBounds(tc.size, tc.groups, g)
			covered += hi - lo
			for l := lo; l < hi; l++ {
				if groupOf(l, tc.size, tc.groups) != g {
					t.Errorf("groupOf(%d, %d, %d) != %d", l, tc.size, tc.groups, g)
				}
			}
		}
		if covered != tc.size {
			t.Errorf("groups of %d/%d cover %d", tc.size, tc.groups, covered)
		}
	}
}

func TestMultiLeaderFasterThanSingleForBigNodes(t *testing.T) {
	// The [14] claim: extra leaders reduce the serialization at one
	// leader for large aggregate payloads.
	shape := []int{24, 24, 24, 24}
	per := 8 * 2048
	lat := func(leaders int) sim.Time {
		return latencyOf(t, sim.HazelHenCray(), shape, func(p *mpi.Proc) error {
			m, err := NewMultiLeaderHier(p.CommWorld(), leaders)
			if err != nil {
				return err
			}
			return m.Allgather(mpi.Sized(per), mpi.Sized(per*p.Size()), per)
		})
	}
	one := lat(1)
	four := lat(4)
	if four >= one {
		t.Errorf("4 leaders (%v) should beat 1 leader (%v) on 24-rank nodes", four, one)
	}
}

// Exscan and ReduceScatterBlock are not collectives the package ships
// (no workload calls them): they live here for the tests above, which
// check them against Scan and Allreduce.

const tagReduceScatter = 1<<25 + 33

// Exscan computes the exclusive prefix reduction: rank r's recv holds
// op(send_0, ..., send_{r-1}); rank 0's recv is left untouched (as in
// MPI, where it is undefined).
func Exscan(c *mpi.Comm, send, recv mpi.Buf, count int, dt mpi.Datatype, op mpi.Op) error {
	if err := checkReduceArgs(c, send, send, count, dt); err != nil {
		return err
	}
	p := c.Proc()
	bytes := count * dt.Size()
	if c.Size() == 1 {
		return nil
	}
	acc := p.World().NewBuf(bytes)
	p.CopyLocal(acc, send.Slice(0, bytes), 1)
	tmp := p.World().NewBuf(bytes)

	rank, n := c.Rank(), c.Size()
	seeded := false
	for mask := 1; mask < n; mask <<= 1 {
		partner := rank ^ mask
		if partner >= n {
			continue
		}
		if _, err := c.Sendrecv(acc, partner, tagScan, tmp, partner, tagScan); err != nil {
			return fmt.Errorf("coll: exscan mask %d: %w", mask, err)
		}
		if partner < rank {
			if !seeded {
				p.CopyLocal(recv.Slice(0, bytes), tmp, 1)
				seeded = true
			} else {
				op.Apply(recv, tmp, count, dt)
				p.Compute(float64(count))
			}
		}
		op.Apply(acc, tmp, count, dt)
		p.Compute(float64(count))
	}
	return nil
}

// ReduceScatterBlock reduces count-per-rank blocks across all ranks and
// scatters the result: rank r ends with op-reduction of everyone's r-th
// block. Implemented as pairwise exchange (n-1 balanced steps), the
// algorithm MPICH uses for commutative ops on non-power-of-two counts.
func ReduceScatterBlock(c *mpi.Comm, send, recv mpi.Buf, countPer int, dt mpi.Datatype, op mpi.Op) error {
	n := c.Size()
	bytes := countPer * dt.Size()
	switch {
	case c == nil:
		return fmt.Errorf("coll: reduce-scatter on nil communicator")
	case countPer < 0:
		return fmt.Errorf("coll: negative block count %d", countPer)
	case send.Len() < bytes*n:
		return fmt.Errorf("coll: reduce-scatter send buffer %dB < %d blocks", send.Len(), n)
	case recv.Len() < bytes:
		return fmt.Errorf("coll: reduce-scatter recv buffer %dB < %dB", recv.Len(), bytes)
	}
	p := c.Proc()
	rank := c.Rank()
	p.CopyLocal(recv.Slice(0, bytes), send.Slice(rank*bytes, bytes), 1)
	if n == 1 {
		return nil
	}
	tmp := p.World().NewBuf(bytes)
	for step := 1; step < n; step++ {
		dst := (rank + step) % n
		src := (rank - step + n) % n
		// Send the block destined for dst, receive my block's
		// contribution from src.
		if _, err := c.Sendrecv(
			send.Slice(dst*bytes, bytes), dst, tagReduceScatter,
			tmp, src, tagReduceScatter,
		); err != nil {
			return fmt.Errorf("coll: reduce-scatter step %d: %w", step, err)
		}
		op.Apply(recv, tmp, countPer, dt)
		p.Compute(float64(countPer))
	}
	return nil
}
