// Command mpibench runs the micro-benchmark experiments of the paper
// (Figs. 7-10): Hy_Allgather vs the SMP-aware pure-MPI Allgather on the
// simulated Cray XC40 (Cray MPI) and NEC (OpenMPI) clusters.
//
// Usage:
//
//	mpibench -fig 7            # one figure
//	mpibench -fig all          # every micro figure
//	mpibench -fig 7 -fine      # full 2^0..2^15 element grid
//	mpibench -nodes 8 -ppn 4 -elems 1024 -machine hazelhen-cray
//	                           # free-form single measurement
//
// A flag the selected mode does not read (-sync with -fig, -fine
// without) is an error naming the flag.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/bench"
	"repro/internal/hybrid"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/spec"
)

func main() {
	spec.InstallEnvTuning()
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "mpibench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("mpibench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fig := fs.String("fig", "", "figure to reproduce: 7, 8, 9, 10 or all")
	fine := fs.Bool("fine", false, "figures: full power-of-two element sweep")
	iters := fs.Int("iters", 0, "timed iterations per point (default 5)")
	nodes := fs.Int("nodes", 4, "free-form: number of nodes")
	ppn := fs.Int("ppn", 24, "free-form: ranks per node")
	elems := fs.Int("elems", 1024, "free-form: elements of double precision per rank")
	machine := fs.String("machine", "hazelhen-cray", "free-form: machine profile")
	sync := fs.String("sync", "barrier", "free-form: hybrid sync flavor: barrier, p2p, sharedflags")
	trace := fs.Bool("trace", false, "free-form: print event-trace statistics of the hybrid op")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// A flag the selected mode does not read is an error, not a run that
	// prints numbers for some other configuration than the command line's.
	mode, unread := "free-form mode (no -fig)", []string{"fine"}
	if *fig != "" {
		mode, unread = "figure mode (-fig)", []string{"nodes", "ppn", "elems", "machine", "sync", "trace"}
	}
	var stray error
	fs.Visit(func(f *flag.Flag) {
		if stray == nil && slices.Contains(unread, f.Name) {
			stray = fmt.Errorf("-%s is not read in %s", f.Name, mode)
		}
	})
	if stray != nil {
		return stray
	}

	if *fig != "" {
		return runFigures(stdout, *fig, bench.FigOpts{Fine: *fine, Iters: *iters})
	}
	if err := runFreeForm(stdout, *machine, *nodes, *ppn, *elems, *iters, *sync); err != nil {
		return err
	}
	if *trace {
		return runTraced(stdout, *machine, *nodes, *ppn, *elems, *sync)
	}
	return nil
}

// runTraced repeats the hybrid measurement once with event tracing on
// and prints the aggregate statistics (message counts and bytes).
func runTraced(out io.Writer, machine string, nodes, ppn, elems int, syncName string) error {
	model, err := sim.Profile(machine)
	if err != nil {
		return err
	}
	syncMode, err := parseSyncMode(syncName)
	if err != nil {
		return err
	}
	topo, err := sim.Uniform(nodes, ppn)
	if err != nil {
		return err
	}
	tr := sim.NewTracer()
	w, err := mpi.NewWorld(model, topo, mpi.WithTracer(tr))
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
	fmt.Fprintln(out, "\nevent trace of one Hy_Allgather:")
	return tr.Stats().Fprint(out)
}

func runFigures(out io.Writer, which string, o bench.FigOpts) error {
	emit := func(t *bench.Table, err error) error {
		if err != nil {
			return err
		}
		return t.Fprint(out)
	}
	emitAll := func(ts []*bench.Table, err error) error {
		if err != nil {
			return err
		}
		for _, t := range ts {
			if err := t.Fprint(out); err != nil {
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
			if err := runFigures(out, f, o); err != nil {
				return err
			}
		}
		return nil
	default:
		return fmt.Errorf("unknown figure %q (want 7, 8, 9, 10 or all)", which)
	}
}

func runFreeForm(out io.Writer, machine string, nodes, ppn, elems, iters int, syncName string) error {
	model, err := sim.Profile(machine)
	if err != nil {
		return err
	}
	syncMode, err := parseSyncMode(syncName)
	if err != nil {
		return err
	}
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
	fmt.Fprintf(out, "machine=%s nodes=%d ppn=%d elems=%d sync=%s\n", machine, nodes, ppn, elems, syncName)
	fmt.Fprintf(out, "Hy_Allgather: %10.2f us\n", hy.Us())
	fmt.Fprintf(out, "Allgather:    %10.2f us\n", pure.Us())
	fmt.Fprintf(out, "ratio:        %10.2f\n", float64(pure)/float64(hy))
	return nil
}
