package bench

import (
	"fmt"

	"repro/internal/coll"
	"repro/internal/hybrid"
	"repro/internal/mpi"
	"repro/internal/sim"
)

// CoresPerNode is the node width of both clusters in the paper (2-socket
// Haswell, 24 cores).
const CoresPerNode = 24

// ShapeFor lays `cores` ranks over nodes SMP-style with up to
// CoresPerNode per node (the scheme behind the Fig. 11/12 core counts:
// 1024 cores = 42 full nodes + one 16-rank node).
func ShapeFor(cores int) []int {
	var shape []int
	for cores > 0 {
		n := cores
		if n > CoresPerNode {
			n = CoresPerNode
		}
		shape = append(shape, n)
		cores -= n
	}
	return shape
}

// MicroOpts configures a micro-benchmark measurement.
type MicroOpts struct {
	Iters int // timed operations per measurement (averaged)
	Sync  hybrid.SyncMode
}

func (o MicroOpts) iters() int {
	if o.Iters <= 0 {
		// The OSU benchmark averages 10000 executions; virtual
		// time is deterministic, so a handful gives the same mean.
		return 5
	}
	return o.Iters
}

// Makespan runs body on every rank of a fresh world laid over shape
// (ranks per node, SMP-style) and returns the run's virtual makespan:
// the one measurement scaffold behind every latency in this package
// and in cmd/ablations.
func Makespan(model *sim.CostModel, shape []int, body func(p *mpi.Proc) error, opts ...mpi.Option) (sim.Time, error) {
	topo, err := sim.NewTopology(shape)
	if err != nil {
		return 0, err
	}
	w, err := mpi.NewWorld(model, topo, opts...)
	if err != nil {
		return 0, err
	}
	defer w.Close()
	if err := w.Run(body); err != nil {
		return 0, err
	}
	return w.MaxClock(), nil
}

// HyAllgatherLatency measures the paper's Hy_Allgather: the hybrid
// allgather including its synchronization calls (setup excluded, as in
// Sect. 5). world configures the world it runs on.
func HyAllgatherLatency(model *sim.CostModel, nodeSizes []int, bytesPerRank int, o MicroOpts, world ...mpi.Option) (sim.Time, error) {
	iters := o.iters()
	t, err := Makespan(model, nodeSizes, func(p *mpi.Proc) error {
		ctx, err := hybrid.New(p.CommWorld(), hybrid.WithSync(o.Sync))
		if err != nil {
			return err
		}
		a, err := ctx.NewAllgatherer(bytesPerRank)
		if err != nil {
			return err
		}
		for i := 0; i < iters; i++ {
			if err := a.Allgather(); err != nil {
				return err
			}
		}
		return nil
	}, world...)
	return t / sim.Time(iters), err
}

// PureAllgatherLatency measures the paper's baseline Allgather: the
// SMP-aware pure-MPI MPI_Allgather.
func PureAllgatherLatency(model *sim.CostModel, nodeSizes []int, bytesPerRank int, o MicroOpts, world ...mpi.Option) (sim.Time, error) {
	iters := o.iters()
	t, err := Makespan(model, nodeSizes, func(p *mpi.Proc) error {
		h, err := coll.NewHier(p.CommWorld())
		if err != nil {
			return err
		}
		send := mpi.Sized(bytesPerRank)
		recv := mpi.Sized(bytesPerRank * p.Size())
		for i := 0; i < iters; i++ {
			if err := h.Allgather(send, recv, bytesPerRank); err != nil {
				return err
			}
		}
		return nil
	}, world...)
	return t / sim.Time(iters), err
}

// Machines returns the two machine/library stacks of the evaluation, in
// presentation order.
func Machines() []*sim.CostModel {
	return []*sim.CostModel{sim.VulcanOpenMPI(), sim.HazelHenCray()}
}

// Elems is the element sweep of Figs. 7, 8 and 10: 2^0 .. 2^15 doubles.
func Elems() []int {
	var out []int
	for e := 1; e <= 32768; e *= 4 {
		out = append(out, e)
	}
	return out
}

// ElemsFine is the full power-of-two sweep (2^0..2^15) for the
// command-line tools; the coarser Elems keeps test/bench runtime sane.
func ElemsFine() []int {
	var out []int
	for e := 1; e <= 32768; e *= 2 {
		out = append(out, e)
	}
	return out
}

func fmtUs(t sim.Time) string { return fmt.Sprintf("%.2f", t.Us()) }
