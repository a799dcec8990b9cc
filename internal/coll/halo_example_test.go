package coll_test

import (
	"fmt"
	"math"

	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/sim"
)

const (
	cells = 64 // stencil cells per rank
	steps = 8
)

// A 1-D stencil ring, the hybrid MPI+MPI motif the paper generalizes to
// collectives, in three flavors over 2 nodes of 6 ranks:
//
//   - pure MPI: two Sendrecv calls per step on the world communicator
//     swap both borders with the ring neighbors;
//   - hybrid MPI+MPI: the node's sub-domain lives in one shared window,
//     so on-node borders need no copies, and only the two node-edge
//     ranks talk to other nodes, between node barriers;
//   - pure MPI plus a per-step global residual norm, reduced blocking
//     with Allreduce or overlapped with the stencil update through the
//     nonblocking Iallreduce schedule.
//
// The flavors compute identical fields and differ in virtual time.
func Example_halo() {
	topo := sim.MustUniform(2, 6)
	pure, err := ring(topo, false, false)
	if err != nil {
		panic(err)
	}
	hy, err := hybridRing(topo)
	if err != nil {
		panic(err)
	}
	fmt.Printf("stencils identical: %v (checksum %.6f)\n", pure.sum == hy.sum, pure.sum)
	fmt.Printf("pure MPI halo exchange:   %v\n", pure.time)
	fmt.Printf("hybrid MPI+MPI exchange:  %v\n", hy.time)
	fmt.Printf("hybrid saves %.1f%% of the virtual time\n", 100*(1-float64(hy.time)/float64(pure.time)))

	blocking, err := ring(topo, true, false)
	if err != nil {
		panic(err)
	}
	overlapped, err := ring(topo, true, true)
	if err != nil {
		panic(err)
	}
	fmt.Printf("norms agree: %v (final %.6f)\n", math.Abs(blocking.norm-overlapped.norm) <= 1e-9, blocking.norm)
	fmt.Printf("blocking Allreduce:       %v\n", blocking.time)
	fmt.Printf("overlapped Iallreduce:    %v\n", overlapped.time)
	fmt.Printf("overlap saves %.1f%% of the virtual time\n", 100*(1-float64(overlapped.time)/float64(blocking.time)))
	// Output:
	// stencils identical: true (checksum 4465.920000)
	// pure MPI halo exchange:   163.5us
	// hybrid MPI+MPI exchange:  90.8us
	// hybrid saves 44.4% of the virtual time
	// norms agree: true (final 4465.920000)
	// blocking Allreduce:       258.4us
	// overlapped Iallreduce:    171.8us
	// overlap saves 33.5% of the virtual time
}

type outcome struct {
	time      sim.Time
	sum, norm float64 // sum of the final field; rank 0's last norm
}

// ring is the pure-MPI stencil: private ghost cells, both borders
// swapped by two Sendrecv calls per step around the periodic ring of
// world ranks (the decomposition is the rank order). With norm, every
// step also reduces the global sum of the field, blocking or, with
// overlap, posted as a schedule before the independent border exchange
// and update and completed after them.
func ring(topo *sim.Topology, norm, overlap bool) (outcome, error) {
	w, err := mpi.NewWorld(sim.Laptop(), topo, mpi.WithRealData())
	if err != nil {
		return outcome{}, err
	}
	sums := make([]float64, topo.Size())
	var lastNorm float64
	err = w.Run(func(p *mpi.Proc) error {
		c := p.CommWorld()
		left, right := (p.Rank()-1+p.Size())%p.Size(), (p.Rank()+1)%p.Size()
		field := initField(p.Rank())
		local, global := mpi.Bytes(make([]byte, 8)), mpi.Bytes(make([]byte, 8))
		lb, rb := mpi.Bytes(make([]byte, 8)), mpi.Bytes(make([]byte, 8))
		gl, gr := mpi.Bytes(make([]byte, 8)), mpi.Bytes(make([]byte, 8))
		for s := 0; s < steps; s++ {
			var sched *mpi.Sched
			var err error // per rank: the enclosing err is Run's
			if norm {
				local.PutFloat64(0, sum(field))
				if !overlap {
					err = coll.Allreduce(c, local, global, 1, mpi.Float64, mpi.OpSum)
				} else if sched, err = coll.Iallreduce(c, local, global, 1, mpi.Float64, mpi.OpSum); err == nil {
					err = sched.Start()
				}
				if err != nil {
					return err
				}
			}
			// The left border travels left while the right ghost
			// arrives, then the right border travels right while the
			// left ghost arrives.
			lb.PutFloat64(0, field[0])
			rb.PutFloat64(0, field[cells-1])
			if _, err := c.Sendrecv(lb, left, 2, gr, right, 2); err != nil {
				return err
			}
			if _, err := c.Sendrecv(rb, right, 1, gl, left, 1); err != nil {
				return err
			}
			field = relax(field, gl.Float64At(0), gr.Float64At(0))
			p.Compute(3 * cells)
			if sched != nil {
				if err := sched.Wait(); err != nil {
					return err
				}
			}
		}
		sums[p.Rank()] = sum(field)
		if p.Rank() == 0 {
			lastNorm = global.Float64At(0)
		}
		return nil
	})
	return outcome{time: w.MaxClock(), sum: sum(sums), norm: lastNorm}, err
}

// hybridRing keeps each node's sub-domain in one shared window; only
// the node-edge ranks exchange borders across nodes, into two ghost
// cells the node leader allocates.
func hybridRing(topo *sim.Topology) (outcome, error) {
	w, err := mpi.NewWorld(sim.Laptop(), topo, mpi.WithRealData())
	if err != nil {
		return outcome{}, err
	}
	sums := make([]float64, topo.Size())
	err = w.Run(func(p *mpi.Proc) error {
		world := p.CommWorld()
		node, err := world.SplitTypeShared()
		if err != nil {
			return err
		}
		win, err := mpi.WinAllocateShared(node, 8*cells)
		if err != nil {
			return err
		}
		ghostBytes := 0
		if node.Rank() == 0 {
			ghostBytes = 16
		}
		ghosts, err := mpi.WinAllocateShared(node, ghostBytes)
		if err != nil {
			return err
		}
		nodeField := win.Whole() // node.Size()*cells values, shared
		gh := ghosts.Whole()     // [left ghost, right ghost]
		mine := win.Mine()
		for i, v := range initField(p.Rank()) {
			mine.PutFloat64(i, v)
		}

		n := p.Size()
		nodeCells := node.Size() * cells
		myOff := node.Rank() * cells
		cur := make([]float64, cells)
		for s := 0; s < steps; s++ {
			if err := node.Barrier(); err != nil { // writes done
				return err
			}
			if node.Rank() == 0 {
				lb := mpi.FromFloat64s([]float64{nodeField.Float64At(0)})
				gl := mpi.Bytes(make([]byte, 8))
				left := (p.Rank() - 1 + n) % n
				if _, err := world.Sendrecv(lb, left, 2, gl, left, 1); err != nil {
					return err
				}
				gh.PutFloat64(0, gl.Float64At(0))
			}
			if node.Rank() == node.Size()-1 {
				rb := mpi.FromFloat64s([]float64{nodeField.Float64At(nodeCells - 1)})
				gr := mpi.Bytes(make([]byte, 8))
				right := (p.Rank() + 1) % n
				if _, err := world.Sendrecv(rb, right, 1, gr, right, 2); err != nil {
					return err
				}
				gh.PutFloat64(1, gr.Float64At(0))
			}
			if err := node.Barrier(); err != nil { // ghosts ready
				return err
			}
			// Read the neighbors straight out of shared memory.
			gl, gr := gh.Float64At(0), gh.Float64At(1)
			if myOff > 0 {
				gl = nodeField.Float64At(myOff - 1)
			}
			if myOff+cells < nodeCells {
				gr = nodeField.Float64At(myOff + cells)
			}
			for i := range cur {
				cur[i] = nodeField.Float64At(myOff + i)
			}
			next := relax(cur, gl, gr)
			if err := node.Barrier(); err != nil { // reads done
				return err
			}
			for i, v := range next {
				mine.PutFloat64(i, v)
			}
			p.Compute(3 * cells)
		}
		if err := node.Barrier(); err != nil {
			return err
		}
		for i := range cur {
			cur[i] = mine.Float64At(i)
		}
		sums[p.Rank()] = sum(cur)
		return nil
	})
	return outcome{time: w.MaxClock(), sum: sum(sums)}, err
}

func initField(rank int) []float64 {
	f := make([]float64, cells)
	for i := range f {
		f[i] = float64(rank) + float64(i)*0.01
	}
	return f
}

// relax is one Jacobi smoothing step with ghost values at the ends.
func relax(f []float64, gl, gr float64) []float64 {
	out := make([]float64, len(f))
	for i := range f {
		l, r := gl, gr
		if i > 0 {
			l = f[i-1]
		}
		if i < len(f)-1 {
			r = f[i+1]
		}
		out[i] = 0.25*l + 0.5*f[i] + 0.25*r
	}
	return out
}

func sum(f []float64) float64 {
	s := 0.0
	for _, v := range f {
		s += v
	}
	return s
}
