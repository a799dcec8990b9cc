// Command mpibench measures one point of the paper's micro-benchmark
// experiments (Figs. 7-10): Hy_Allgather vs the SMP-aware pure-MPI
// Allgather on a simulated cluster, under any hybrid sync flavor. The
// figures themselves come from cmd/experiments.
//
// Usage:
//
//	mpibench -nodes 8 -ppn 4 -elems 1024 -machine hazelhen-cray
//	mpibench -nodes 2 -ppn 4 -elems 64 -sync p2p -trace
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

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
	iters := fs.Int("iters", 0, "timed iterations (0 = default 5)")
	nodes := fs.Int("nodes", 4, "number of nodes")
	ppn := fs.Int("ppn", 24, "ranks per node")
	elems := fs.Int("elems", 1024, "elements of double precision per rank")
	machine := fs.String("machine", "hazelhen-cray", "machine profile")
	sync := fs.String("sync", "barrier", "hybrid sync flavor: barrier, p2p, sharedflags")
	trace := fs.Bool("trace", false, "print event-trace statistics of the hybrid op")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *iters < 0 {
		return fmt.Errorf("-iters %d: must not be negative (0 = default 5)", *iters)
	}
	if *elems < 0 {
		return fmt.Errorf("-elems %d: must not be negative", *elems)
	}
	if *nodes <= 0 || *ppn <= 0 {
		return fmt.Errorf("-nodes %d -ppn %d: both must be positive", *nodes, *ppn)
	}
	model, err := sim.Profile(*machine)
	if err != nil {
		return err
	}
	syncMode, err := parseSyncMode(*sync)
	if err != nil {
		return err
	}
	shape := make([]int, *nodes)
	for i := range shape {
		shape[i] = *ppn
	}
	bytes := 8 * *elems
	o := bench.MicroOpts{Iters: *iters, Sync: syncMode}
	hy, err := bench.HyAllgatherLatency(model, shape, bytes, o)
	if err != nil {
		return err
	}
	pure, err := bench.PureAllgatherLatency(model, shape, bytes, o)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "machine=%s nodes=%d ppn=%d elems=%d sync=%s\n", *machine, *nodes, *ppn, *elems, *sync)
	fmt.Fprintf(stdout, "Hy_Allgather: %10.2f us\n", hy.Us())
	fmt.Fprintf(stdout, "Allgather:    %10.2f us\n", pure.Us())
	fmt.Fprintf(stdout, "ratio:        %10.2f\n", float64(pure)/float64(hy))
	if !*trace {
		return nil
	}

	// One more hybrid op with event tracing on, for its message counts
	// and bytes.
	tr := sim.NewTracer()
	_, err = bench.Makespan(model, shape, func(p *mpi.Proc) error {
		ctx, err := hybrid.New(p.CommWorld(), hybrid.WithSync(syncMode))
		if err != nil {
			return err
		}
		a, err := ctx.NewAllgatherer(bytes)
		if err != nil {
			return err
		}
		return a.Allgather()
	}, mpi.WithTracer(tr))
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\nevent trace of one Hy_Allgather:")
	return tr.Stats().Fprint(stdout)
}

// parseSyncMode maps the -sync flag to a hybrid synchronization flavor.
func parseSyncMode(s string) (hybrid.SyncMode, error) {
	switch s {
	case "barrier", "":
		return hybrid.SyncBarrier, nil
	case "p2p":
		return hybrid.SyncP2P, nil
	case "sharedflags", "flags":
		return hybrid.SyncSharedFlags, nil
	default:
		return 0, fmt.Errorf("unknown sync flavor %q (want barrier, p2p, sharedflags)", s)
	}
}
