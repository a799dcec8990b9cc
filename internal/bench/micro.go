package bench

import (
	"fmt"
	"slices"

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
	shape := slices.Repeat([]int{CoresPerNode}, cores/CoresPerNode)
	if rest := cores % CoresPerNode; rest > 0 {
		shape = append(shape, rest)
	}
	return shape
}

// Makespan runs body on every rank of a fresh world over topo and
// returns the run's virtual makespan. It serves the measurements a
// spec.Query cannot state — a hybrid sync flavor or pipeline chunk, a
// world option such as a tracer, a multi-leader hierarchy; the figures'
// allgather series run as Queries (AllgatherQuery).
func Makespan(model *sim.CostModel, topo *sim.Topology, body func(p *mpi.Proc) error, opts ...mpi.Option) (sim.Time, error) {
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

// Allgathers is the rank body of one side of the Figs. 7-10 pair: n
// allgathers of bytes per rank, Hy_Allgather built with opts (context
// and window set up untimed, as in Sect. 5) or the SMP-aware pure
// MPI_Allgather. The caller builds opts once: a hybrid.Option made in
// the rank body is one allocation per rank.
func Allgathers(hy bool, bytes, n int, opts ...hybrid.Option) func(p *mpi.Proc) error {
	return func(p *mpi.Proc) error {
		var op func() error
		if hy {
			ctx, err := hybrid.New(p.CommWorld(), opts...)
			if err != nil {
				return err
			}
			a, err := ctx.NewAllgatherer(bytes)
			if err != nil {
				return err
			}
			op = a.Allgather
		} else {
			h, err := coll.NewHier(p.CommWorld())
			if err != nil {
				return err
			}
			send, recv := mpi.Sized(bytes), mpi.Sized(bytes*p.Size())
			op = func() error { return h.Allgather(send, recv, bytes) }
		}
		for i := 0; i < n; i++ {
			if err := op(); err != nil {
				return err
			}
		}
		return nil
	}
}

// Machines returns the two machine/library stacks of the evaluation, in
// presentation order.
func Machines() []*sim.CostModel {
	return []*sim.CostModel{sim.VulcanOpenMPI(), sim.HazelHenCray()}
}

// Elems is the element sweep of Figs. 7, 8 and 10: every fourth power
// of two from 1 to 16,384 doubles (4^0 .. 4^7).
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
