// Package npb provides three NPB-style kernel skeletons — CG
// (allreduce-dominated), FT (alltoall-dominated) and IS
// (alltoall+allgather) — in pure-MPI and hybrid MPI+MPI flavors.
//
// The paper motivates its collectives work with "a spectrum of
// scientific applications or kernels" citing the NAS Parallel
// Benchmarks [21]; these kernels exercise the hybrid collective family
// (Allreducer, Alltoaller, Allgatherer) on the communication skeletons
// of that suite, with real data and verifiable results at test scale
// and modeled compute at benchmark scale.
package npb

import (
	"fmt"

	"repro/internal/coll"
	"repro/internal/hybrid"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// Kernel identifies one NPB-style kernel.
type Kernel int

const (
	// CG is the conjugate-gradient skeleton: a 1-D Laplacian solve
	// whose iterations mix halo point-to-point with two scalar
	// allreduces (the dot products).
	CG Kernel = iota
	// FT is the spectral-transform skeleton: repeated all-to-all
	// transposes of a distributed matrix with local compute between.
	FT
	// IS is the integer-sort skeleton: a bucket exchange (alltoall)
	// followed by an allgather of bucket boundaries.
	IS
	// EP is the embarrassingly-parallel skeleton: heavy local compute
	// with one small allreduce per iteration.
	EP
)

// String names the kernel.
func (k Kernel) String() string {
	switch k {
	case CG:
		return "CG"
	case FT:
		return "FT"
	case IS:
		return "IS"
	case EP:
		return "EP"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// Config describes one kernel run.
type Config struct {
	Kernel Kernel
	// N is the per-rank problem size (rows for CG, matrix columns
	// per rank for FT, keys per rank for IS).
	N int
	// Iters is the number of kernel iterations.
	Iters int
	// Hybrid selects the hybrid MPI+MPI collectives.
	Hybrid bool
	// Verify runs with real data and checks the kernel's invariant
	// (requires a real-data world).
	Verify bool
}

// Result carries timing and verification.
type Result struct {
	Makespan sim.Time
	Verified bool
}

// Run executes the kernel on the world.
func Run(w *mpi.World, cfg Config) (Result, error) {
	switch {
	case cfg.N <= 0:
		return Result{}, fmt.Errorf("npb: N = %d", cfg.N)
	case cfg.Iters <= 0:
		return Result{}, fmt.Errorf("npb: Iters = %d", cfg.Iters)
	case cfg.Verify && !w.RealData():
		return Result{}, fmt.Errorf("npb: Verify needs a world with real data")
	}
	w.ResetClocks()
	okAll := make([]bool, w.Size())
	err := w.Run(func(p *mpi.Proc) error {
		var ok bool
		var err error
		switch cfg.Kernel {
		case CG:
			ok, err = runCG(p, cfg)
		case FT:
			ok, err = runFT(p, cfg)
		case IS:
			ok, err = runIS(p, cfg)
		case EP:
			ok, err = runEP(p, cfg)
		default:
			err = fmt.Errorf("npb: unknown kernel %v", cfg.Kernel)
		}
		okAll[p.Rank()] = ok
		return err
	})
	if err != nil {
		return Result{}, err
	}
	verified := cfg.Verify
	for _, ok := range okAll {
		verified = verified && ok
	}
	return Result{Makespan: w.MaxClock(), Verified: verified}, nil
}

// allreducer abstracts the two allreduce flavors behind one call.
type allreducer struct {
	comm *mpi.Comm
	hy   *hybrid.Allreducer
	tmpS mpi.Buf
	tmpR mpi.Buf
}

func newAllreducer(p *mpi.Proc, hybridMode bool, count int) (*allreducer, error) {
	world := p.CommWorld()
	a := &allreducer{comm: world}
	if hybridMode {
		ctx, err := hybrid.New(world)
		if err != nil {
			return nil, err
		}
		red, err := ctx.NewAllreducer(count, mpi.Float64)
		if err != nil {
			return nil, err
		}
		a.hy = red
		return a, nil
	}
	a.tmpS = p.World().NewBuf(8 * count)
	a.tmpR = p.World().NewBuf(8 * count)
	return a, nil
}

// sum reduces vals element-wise across ranks (returns a fresh slice).
func (a *allreducer) sum(p *mpi.Proc, vals []float64) ([]float64, error) {
	if a.hy != nil {
		a.hy.Mine().PutFloat64s(0, vals)
		if err := a.hy.Allreduce(mpi.OpSum); err != nil {
			return nil, err
		}
		out := make([]float64, len(vals))
		a.hy.Result().CopyFloat64s(out, 0)
		// Fence reads before the next epoch's writes.
		if err := a.hy.ReadFence(); err != nil {
			return nil, err
		}
		return out, nil
	}
	a.tmpS.PutFloat64s(0, vals)
	if err := coll.Allreduce(a.comm, a.tmpS, a.tmpR, len(vals), mpi.Float64, mpi.OpSum); err != nil {
		return nil, err
	}
	out := make([]float64, len(vals))
	a.tmpR.CopyFloat64s(out, 0)
	return out, nil
}
