// Command mpibench runs the micro-benchmark experiments of the paper
// (Figs. 7-10): Hy_Allgather vs the SMP-aware pure-MPI Allgather on the
// simulated Cray XC40 (Cray MPI) and NEC (OpenMPI) clusters.
//
// Usage:
//
//	mpibench -fig 7            # one figure
//	mpibench -fig all          # every micro figure
//	mpibench -fine             # full 2^0..2^15 element grid
//	mpibench -nodes 8 -ppn 4 -elems 1024 -machine hazelhen-cray
//	                           # free-form single measurement
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/hybrid"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/spec"
)

func main() {
	spec.InstallEnvTuning()
	fig := flag.String("fig", "", "figure to reproduce: 7, 8, 9, 10 or all")
	fine := flag.Bool("fine", false, "full power-of-two element sweep")
	iters := flag.Int("iters", 0, "timed iterations per point (default 5)")
	nodes := flag.Int("nodes", 4, "free-form: number of nodes")
	ppn := flag.Int("ppn", 24, "free-form: ranks per node")
	elems := flag.Int("elems", 1024, "free-form: elements of double precision per rank")
	machine := flag.String("machine", "hazelhen-cray", "free-form: machine profile")
	sync := flag.String("sync", "barrier", "hybrid sync flavor: barrier, p2p, sharedflags")
	trace := flag.Bool("trace", false, "free-form: print event-trace statistics of the hybrid op")
	flag.Parse()

	if *fig != "" {
		if err := runFigures(*fig, bench.FigOpts{Fine: *fine, Iters: *iters}); err != nil {
			fatal(err)
		}
		return
	}
	if err := runFreeForm(*machine, *nodes, *ppn, *elems, *iters, *sync); err != nil {
		fatal(err)
	}
	if *trace {
		if err := runTraced(*machine, *nodes, *ppn, *elems, *sync); err != nil {
			fatal(err)
		}
	}
}

// runTraced repeats the hybrid measurement once with event tracing on
// and prints the aggregate statistics (message counts and bytes).
func runTraced(machine string, nodes, ppn, elems int, syncName string) error {
	mk := sim.Profiles()[machine]
	syncMode, err := parseSyncMode(syncName)
	if err != nil {
		return err
	}
	topo, err := sim.Uniform(nodes, ppn)
	if err != nil {
		return err
	}
	tr := sim.NewTracer()
	w, err := mpi.NewWorld(mk(), topo, mpi.WithTracer(tr))
	if err != nil {
		return err
	}
	err = w.Run(func(p *mpi.Proc) error {
		ctx, err := hybrid.New(p.CommWorld(), hybrid.WithSync(syncMode))
		if err != nil {
			return err
		}
		a, err := ctx.NewAllgatherer(8 * elems)
		if err != nil {
			return err
		}
		return a.Allgather()
	})
	if err != nil {
		return err
	}
	fmt.Println("\nevent trace of one Hy_Allgather:")
	return tr.Stats().Fprint(os.Stdout)
}

func runFigures(which string, o bench.FigOpts) error {
	emit := func(t *bench.Table, err error) error {
		if err != nil {
			return err
		}
		return t.Fprint(os.Stdout)
	}
	emitAll := func(ts []*bench.Table, err error) error {
		if err != nil {
			return err
		}
		for _, t := range ts {
			if err := t.Fprint(os.Stdout); err != nil {
				return err
			}
		}
		return nil
	}
	switch which {
	case "7":
		return emit(bench.Fig7(o))
	case "8":
		return emitAll(bench.Fig8(o))
	case "9":
		return emitAll(bench.Fig9(o))
	case "10":
		return emit(bench.Fig10(o))
	case "all":
		for _, f := range []string{"7", "8", "9", "10"} {
			if err := runFigures(f, o); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown figure %q (want 7, 8, 9, 10 or all)", which)
	}
}

func runFreeForm(machine string, nodes, ppn, elems, iters int, syncName string) error {
	mk, ok := sim.Profiles()[machine]
	if !ok {
		return fmt.Errorf("unknown machine %q (profiles: hazelhen-cray, vulcan-openmpi, laptop)", machine)
	}
	syncMode, err := parseSyncMode(syncName)
	if err != nil {
		return err
	}
	model := mk()
	shape := make([]int, nodes)
	for i := range shape {
		shape[i] = ppn
	}
	o := bench.MicroOpts{Iters: iters, Sync: syncMode}
	hy, err := bench.HyAllgatherLatency(model, shape, 8*elems, o)
	if err != nil {
		return err
	}
	pure, err := bench.PureAllgatherLatency(model, shape, 8*elems, o)
	if err != nil {
		return err
	}
	fmt.Printf("machine=%s nodes=%d ppn=%d elems=%d sync=%s\n", machine, nodes, ppn, elems, syncName)
	fmt.Printf("Hy_Allgather: %10.2f us\n", hy.Us())
	fmt.Printf("Allgather:    %10.2f us\n", pure.Us())
	fmt.Printf("ratio:        %10.2f\n", float64(pure)/float64(hy))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mpibench:", err)
	os.Exit(1)
}
