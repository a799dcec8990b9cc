package coll

import (
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// ringWorld runs body on a world with a 1-D periodic Cartesian
// communicator over all ranks.
func ringWorld(t *testing.T, nodeSizes []int, body func(p *mpi.Proc, ring *mpi.Comm) error) *mpi.World {
	t.Helper()
	return runWorld(t, sim.Laptop(), nodeSizes, func(p *mpi.Proc) error {
		ring, err := p.CommWorld().CartCreate([]int{p.Size()}, []bool{true}, false)
		if err != nil {
			return err
		}
		return body(p, ring)
	})
}

// forcedNeighbor is NeighborAlltoall with one registered shape forced
// through the tuning, the way a user pins it.
func forcedNeighbor(shape string) func(*mpi.Comm, mpi.Buf, mpi.Buf, int) error {
	return func(c *mpi.Comm, send, recv mpi.Buf, per int) error {
		tun := Tuning{Force: map[Collective]string{CollNeighborAlltoall: shape}}
		return NeighborAlltoall(WithTuning(c, tun), send, recv, per)
	}
}

// neighborShapes are the engine's pick and both registered shapes.
var neighborShapes = map[string]func(*mpi.Comm, mpi.Buf, mpi.Buf, int) error{
	"auto":     NeighborAlltoall,
	"pairwise": forcedNeighbor("pairwise"),
	"linear":   forcedNeighbor("linear"),
}

// explicitShapes are the two shapes without the engine's pick.
var explicitShapes = map[string]func(*mpi.Comm, mpi.Buf, mpi.Buf, int) error{
	"pairwise": neighborShapes["pairwise"],
	"linear":   neighborShapes["linear"],
}

// The neighborhood forms the package does not ship, spelt in terms of
// the one it does. They exist for the tests below, which check that
// NeighborAlltoall's machinery (slot addressing, direction tags, the
// posted-all schedule) carries them.

// neighborAllgather is MPI_Neighbor_allgather: the caller's one block,
// repeated once per out-neighbor, through alltoall.
func neighborAllgather(alltoall func(*mpi.Comm, mpi.Buf, mpi.Buf, int) error) func(*mpi.Comm, mpi.Buf, mpi.Buf, int) error {
	return func(c *mpi.Comm, send, recv mpi.Buf, per int) error {
		_, out, _ := c.Neighborhood()
		rep := mpi.Bytes(make([]byte, per*len(out)))
		for i := range out {
			mpi.CopyData(rep.Slice(i*per, per), send)
		}
		return alltoall(c, rep, recv, per)
	}
}

// neighborAlltoallv is MPI_Neighbor_alltoallv with packed
// displacements: the same call record over per-slot byte counts.
func neighborAlltoallv(shape func(*neighborCall) error) func(*mpi.Comm, mpi.Buf, []int, mpi.Buf, []int) error {
	return func(c *mpi.Comm, send mpi.Buf, sendCounts []int, recv mpi.Buf, recvCounts []int) error {
		in, out, _ := c.Neighborhood()
		k := &neighborCall{c: c, in: in, out: out,
			send: blocks{buf: send, counts: sendCounts, displs: Displs(sendCounts)},
			recv: blocks{buf: recv, counts: recvCounts, displs: Displs(recvCounts)}}
		for _, n := range sendCounts {
			k.bytes = max(k.bytes, n)
		}
		return shape(k)
	}
}

// ineighborAlltoall is MPI_Ineighbor_alltoall: the posted-all exchange
// as one round of a nonblocking schedule (all receives in slot order,
// then all sends, relative tags straight from the neighborhood edges).
func ineighborAlltoall(c *mpi.Comm, send, recv mpi.Buf, per int) (*mpi.Sched, error) {
	k, err := openNeighbor(c, send, recv, per)
	if err != nil {
		return nil, err
	}
	var ops []mpi.SchedOp
	for j, e := range k.in {
		if e.Peer != mpi.ProcNull {
			ops = append(ops, mpi.SchedRecv(k.recv.at(j), e.Peer, e.Tag))
		}
	}
	for i, e := range k.out {
		if e.Peer != mpi.ProcNull {
			ops = append(ops, mpi.SchedSend(k.send.at(i), e.Peer, e.Tag))
		}
	}
	return c.NewSched([]mpi.Round{{Ops: ops}}), nil
}

// checkRingAlltoall verifies a ring NeighborAlltoall result: slot 0
// (negative side) holds the left neighbor's positive-direction block,
// slot 1 the right neighbor's negative-direction block.
func checkRingAlltoall(t *testing.T, who string, rank, n int, recv mpi.Buf, elems int) {
	t.Helper()
	left, right := (rank-1+n)%n, (rank+1)%n
	for i := 0; i < elems; i++ {
		// Each rank's send buffer: block 0 (to left) = pattern
		// rank*1e6+i, block 1 (to right) = pattern rank*1e6+elems+i.
		if got, want := recv.Float64At(i), float64(left*1_000_000+elems+i); got != want {
			t.Errorf("%s rank %d: negative slot elem %d = %v, want %v", who, rank, i, got, want)
			return
		}
		if got, want := recv.Float64At(elems+i), float64(right*1_000_000+i); got != want {
			t.Errorf("%s rank %d: positive slot elem %d = %v, want %v", who, rank, i, got, want)
			return
		}
	}
}

func TestNeighborAlltoallOnRing(t *testing.T) {
	for name, fn := range neighborShapes {
		for _, shape := range [][]int{{3, 3}, {2, 2, 2}, {5}} {
			n := 0
			for _, s := range shape {
				n += s
			}
			ringWorld(t, shape, func(p *mpi.Proc, ring *mpi.Comm) error {
				send := fill(p.Rank(), 2*4)
				recv := mpi.Bytes(make([]byte, 2*4*8))
				if err := fn(ring, send, recv, 4*8); err != nil {
					return err
				}
				checkRingAlltoall(t, name, p.Rank(), n, recv, 4)
				return nil
			})
		}
	}
}

func TestNeighborAllgatherOnRing(t *testing.T) {
	for name, alltoall := range neighborShapes {
		fn := neighborAllgather(alltoall)
		ringWorld(t, []int{3, 3}, func(p *mpi.Proc, ring *mpi.Comm) error {
			n := p.Size()
			send := fill(p.Rank(), 4)
			recv := mpi.Bytes(make([]byte, 2*4*8))
			if err := fn(ring, send, recv, 4*8); err != nil {
				return err
			}
			left, right := (p.Rank()-1+n)%n, (p.Rank()+1)%n
			for i := 0; i < 4; i++ {
				if got, want := recv.Float64At(i), float64(left*1_000_000+i); got != want {
					t.Errorf("%s rank %d: left slot elem %d = %v, want %v", name, p.Rank(), i, got, want)
				}
				if got, want := recv.Float64At(4+i), float64(right*1_000_000+i); got != want {
					t.Errorf("%s rank %d: right slot elem %d = %v, want %v", name, p.Rank(), i, got, want)
				}
			}
			return nil
		})
	}
}

// TestNeighborAlltoallTwoWidePeriodic pins the double-edge case: on a
// 2-wide periodic dim both directions reach the same peer, and the
// direction-of-travel tags must keep the two blocks apart (a naive
// FIFO pairing would swap them).
func TestNeighborAlltoallTwoWidePeriodic(t *testing.T) {
	for name, fn := range explicitShapes {
		runWorld(t, sim.Laptop(), []int{2}, func(p *mpi.Proc) error {
			ring, err := p.CommWorld().CartCreate([]int{2}, []bool{true}, false)
			if err != nil {
				return err
			}
			send := fill(p.Rank(), 2)
			recv := mpi.Bytes(make([]byte, 2*8))
			if err := fn(ring, send, recv, 8); err != nil {
				return err
			}
			other := 1 - p.Rank()
			// My negative slot must hold the peer's positive-direction
			// block (its elem 1), my positive slot its negative block.
			if got, want := recv.Float64At(0), float64(other*1_000_000+1); got != want {
				t.Errorf("%s rank %d: negative slot = %v, want %v", name, p.Rank(), got, want)
			}
			if got, want := recv.Float64At(1), float64(other*1_000_000+0); got != want {
				t.Errorf("%s rank %d: positive slot = %v, want %v", name, p.Rank(), got, want)
			}
			return nil
		})
	}
}

// TestNeighborAlltoallOneWidePeriodic pins the self-edge case: a
// 1-wide periodic dim makes the rank its own neighbor in both
// directions, and the blocks must cross over (a block sent positive
// arrives on the negative side).
func TestNeighborAlltoallOneWidePeriodic(t *testing.T) {
	for name, fn := range explicitShapes {
		runWorld(t, sim.Laptop(), []int{4}, func(p *mpi.Proc) error {
			cart, err := p.CommWorld().CartCreate([]int{1, 4}, []bool{true, true}, false)
			if err != nil {
				return err
			}
			send := fill(p.Rank(), 4)
			recv := mpi.Bytes(make([]byte, 4*8))
			if err := fn(cart, send, recv, 8); err != nil {
				return err
			}
			// Dim 0 is the self-loop: negative slot (0) receives my own
			// positive-direction block (1); positive slot (1) my
			// negative block (0).
			if got, want := recv.Float64At(0), float64(p.Rank()*1_000_000+1); got != want {
				t.Errorf("%s rank %d: self negative slot = %v, want %v", name, p.Rank(), got, want)
			}
			if got, want := recv.Float64At(1), float64(p.Rank()*1_000_000+0); got != want {
				t.Errorf("%s rank %d: self positive slot = %v, want %v", name, p.Rank(), got, want)
			}
			return nil
		})
	}
}

// TestNeighborAlltoallNonPeriodicBoundary checks ProcNull handling: the
// boundary slots stay untouched and no transfer deadlocks.
func TestNeighborAlltoallNonPeriodicBoundary(t *testing.T) {
	for name, fn := range explicitShapes {
		runWorld(t, sim.Laptop(), []int{5}, func(p *mpi.Proc) error {
			line, err := p.CommWorld().CartCreate([]int{5}, []bool{false}, false)
			if err != nil {
				return err
			}
			n := p.Size()
			send := fill(p.Rank(), 2)
			recv := mpi.FromFloat64s([]float64{-1, -1})
			if err := fn(line, send, recv, 8); err != nil {
				return err
			}
			if p.Rank() == 0 {
				if got := recv.Float64At(0); got != -1 {
					t.Errorf("%s rank 0: boundary slot overwritten with %v", name, got)
				}
			} else if got, want := recv.Float64At(0), float64((p.Rank()-1)*1_000_000+1); got != want {
				t.Errorf("%s rank %d: negative slot = %v, want %v", name, p.Rank(), got, want)
			}
			if p.Rank() == n-1 {
				if got := recv.Float64At(1); got != -1 {
					t.Errorf("%s last rank: boundary slot overwritten with %v", name, got)
				}
			} else if got, want := recv.Float64At(1), float64((p.Rank()+1)*1_000_000+0); got != want {
				t.Errorf("%s rank %d: positive slot = %v, want %v", name, p.Rank(), got, want)
			}
			return nil
		})
	}
}

func TestNeighborAlltoallvIrregularBlocks(t *testing.T) {
	for name, fn := range map[string]func(*mpi.Comm, mpi.Buf, []int, mpi.Buf, []int) error{
		"auto":     neighborAlltoallv((*neighborCall).selected),
		"pairwise": neighborAlltoallv((*neighborCall).pairwise),
		"linear":   neighborAlltoallv((*neighborCall).linear),
	} {
		ringWorld(t, []int{6}, func(p *mpi.Proc, ring *mpi.Comm) error {
			n := p.Size()
			left, right := (p.Rank()-1+n)%n, (p.Rank()+1)%n
			// Rank r sends r+1 doubles in each direction; so it
			// receives left+1 from the left and right+1 from the right.
			mine := p.Rank() + 1
			send := fill(p.Rank(), 2*mine)
			sendCounts := []int{8 * mine, 8 * mine}
			recvCounts := []int{8 * (left + 1), 8 * (right + 1)}
			recv := mpi.Bytes(make([]byte, recvCounts[0]+recvCounts[1]))
			if err := fn(ring, send, sendCounts, recv, recvCounts); err != nil {
				return err
			}
			// Left neighbor's positive-direction block is its second
			// half: elems left+1 .. 2(left+1)-1 of its pattern.
			for i := 0; i < left+1; i++ {
				if got, want := recv.Float64At(i), float64(left*1_000_000+(left+1)+i); got != want {
					t.Errorf("%s rank %d: left block elem %d = %v, want %v", name, p.Rank(), i, got, want)
					return nil
				}
			}
			for i := 0; i < right+1; i++ {
				if got, want := recv.Float64At(left+1+i), float64(right*1_000_000+i); got != want {
					t.Errorf("%s rank %d: right block elem %d = %v, want %v", name, p.Rank(), i, got, want)
					return nil
				}
			}
			return nil
		})
	}
}

func TestNeighborSelectionPolicies(t *testing.T) {
	cartEnv := Env{Size: 16, Bytes: 1024, Model: sim.Laptop(), Hop: sim.HopNet, Degree: 4, Cart: true}
	graphEnv := cartEnv
	graphEnv.Cart = false

	for _, cl := range []Collective{CollNeighborAlltoall} {
		// Table policy: pairwise on grids, linear without one.
		if got, err := Choose(cl, cartEnv, Tuning{}); err != nil || got != "pairwise" {
			t.Errorf("%s table on cart: %q, %v", cl, got, err)
		}
		if got, err := Choose(cl, graphEnv, Tuning{}); err != nil || got != "linear" {
			t.Errorf("%s table on graph: %q, %v", cl, got, err)
		}
		// Cost policy: pairwise never prices below linear's overlapped
		// posts at degree >= 2, and on graphs it is inapplicable.
		if got, err := Choose(cl, graphEnv, Tuning{Policy: PolicyCost}); err != nil || got != "linear" {
			t.Errorf("%s cost on graph: %q, %v", cl, got, err)
		}
		// Forcing an inapplicable algorithm falls back to the policy.
		if got, err := Choose(cl, graphEnv, Tuning{Force: map[Collective]string{cl: "pairwise"}}); err != nil || got != "linear" {
			t.Errorf("%s forced-pairwise on graph: %q, %v", cl, got, err)
		}
	}
}

// TestNeighborMatchesHandRolledHalo pins the acceptance anchor: the
// pairwise NeighborAlltoall on a 1-D periodic grid is virtual-time
// bit-identical to the hand-rolled two-Sendrecv halo exchange it
// replaces.
func TestNeighborMatchesHandRolledHalo(t *testing.T) {
	const per = 64
	shape := []int{6, 6}

	manual := func(p *mpi.Proc) error {
		c := p.CommWorld()
		n := p.Size()
		left, right := (p.Rank()-1+n)%n, (p.Rank()+1)%n
		lb, rb := fill(p.Rank(), per/8), fill(p.Rank()+1000, per/8)
		gl := mpi.Bytes(make([]byte, per))
		gr := mpi.Bytes(make([]byte, per))
		// The classic pattern: leftward travel, then rightward.
		if _, err := c.Sendrecv(lb, left, 1, gr, right, 1); err != nil {
			return err
		}
		if _, err := c.Sendrecv(rb, right, 2, gl, left, 2); err != nil {
			return err
		}
		return nil
	}
	neighbor := func(p *mpi.Proc) error {
		ring, err := p.CommWorld().CartCreate([]int{p.Size()}, []bool{true}, false)
		if err != nil {
			return err
		}
		send := mpi.Bytes(make([]byte, 2*per))
		mpi.CopyData(send.Slice(0, per), fill(p.Rank(), per/8))
		mpi.CopyData(send.Slice(per, per), fill(p.Rank()+1000, per/8))
		recv := mpi.Bytes(make([]byte, 2*per))
		return NeighborAlltoall(ring, send, recv, per)
	}

	wm := runWorld(t, sim.Laptop(), shape, manual)
	wn := runWorld(t, sim.Laptop(), shape, neighbor)
	if wm.MaxClock() != wn.MaxClock() {
		t.Errorf("virtual time moved: hand-rolled %v, neighborhood %v", wm.MaxClock(), wn.MaxClock())
	}
}

func TestIneighborMatchesBlocking(t *testing.T) {
	const elems = 8
	run := func(nonblocking bool) (sim.Time, *testing.T) {
		w := ringWorld(t, []int{4, 4}, func(p *mpi.Proc, ring *mpi.Comm) error {
			send := fill(p.Rank(), 2*elems)
			recv := mpi.Bytes(make([]byte, 2*elems*8))
			if nonblocking {
				sched, err := ineighborAlltoall(ring, send, recv, elems*8)
				if err != nil {
					return err
				}
				if err := sched.Wait(); err != nil {
					return err
				}
			} else if err := forcedNeighbor("linear")(ring, send, recv, elems*8); err != nil {
				return err
			}
			checkRingAlltoall(t, "ineighbor", p.Rank(), p.Size(), recv, elems)
			return nil
		})
		return w.MaxClock(), t
	}
	blocking, _ := run(false)
	overlap, _ := run(true)
	// With no compute between Start and Wait the schedule timeline
	// matches the posted-all blocking path.
	if blocking != overlap {
		t.Errorf("Ineighbor virtual time %v != blocking %v", overlap, blocking)
	}
}

func TestIneighborAllgatherOverlap(t *testing.T) {
	ringWorld(t, []int{4}, func(p *mpi.Proc, ring *mpi.Comm) error {
		send := fill(p.Rank(), 4)
		recv := mpi.Bytes(make([]byte, 2*4*8))
		_, out, _ := ring.Neighborhood()
		rep := mpi.Bytes(make([]byte, 4*8*len(out)))
		for i := range out {
			mpi.CopyData(rep.Slice(i*4*8, 4*8), send)
		}
		sched, err := ineighborAlltoall(ring, rep, recv, 4*8)
		if err != nil {
			return err
		}
		if err := sched.Start(); err != nil {
			return err
		}
		p.Compute(1e4) // overlapped local work
		if err := sched.Wait(); err != nil {
			return err
		}
		n := p.Size()
		left, right := (p.Rank()-1+n)%n, (p.Rank()+1)%n
		if got, want := recv.Float64At(0), float64(left*1_000_000); got != want {
			t.Errorf("rank %d: left slot = %v, want %v", p.Rank(), got, want)
		}
		if got, want := recv.Float64At(4), float64(right*1_000_000); got != want {
			t.Errorf("rank %d: right slot = %v, want %v", p.Rank(), got, want)
		}
		return nil
	})
}
