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
	"cmp"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/coll"
	"repro/internal/hybrid"
	"repro/internal/mpi"
	"repro/internal/sim"
)

func main() {
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
	topo := sim.MustUniform(*nodes, *ppn)
	bytes := 8 * *elems
	n := cmp.Or(*iters, 5)
	// The hybrid side runs under -sync, which a spec.Query cannot
	// state, so both sides run here; the figures' series are Queries.
	var t [2]sim.Time
	for i, hy := range []bool{true, false} {
		if t[i], err = bench.Makespan(model, topo, allgathers(hy, syncMode, bytes, n)); err != nil {
			return err
		}
	}
	hy, pure := t[0]/sim.Time(n), t[1]/sim.Time(n)
	fmt.Fprintf(stdout, "machine=%s nodes=%d ppn=%d elems=%d sync=%s\n", *machine, *nodes, *ppn, *elems, *sync)
	fmt.Fprintf(stdout, "Hy_Allgather: %10.2f us\n", hy.Us())
	fmt.Fprintf(stdout, "Allgather:    %10.2f us\n", pure.Us())
	if hy == 0 {
		// One rank moving zero elements: no time to divide by.
		fmt.Fprintf(stdout, "ratio:        %10s\n", "n/a")
	} else {
		fmt.Fprintf(stdout, "ratio:        %10.2f\n", float64(pure)/float64(hy))
	}
	if !*trace {
		return nil
	}

	// One more hybrid op with event tracing on, for its message counts
	// and bytes.
	tr := sim.NewTracer()
	_, err = bench.Makespan(model, topo, allgathers(true, syncMode, bytes, 1), mpi.WithTracer(tr))
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, "\nevent trace of one Hy_Allgather:")
	return tr.Stats().Fprint(stdout)
}

// allgathers is the rank body of one side: n allgathers of bytes per
// rank, Hy_Allgather under sync (context and window set up untimed, as
// in Sect. 5) or the SMP-aware pure MPI_Allgather.
func allgathers(hy bool, sync hybrid.SyncMode, bytes, n int) func(p *mpi.Proc) error {
	return func(p *mpi.Proc) error {
		var op func() error
		if hy {
			ctx, err := hybrid.New(p.CommWorld(), hybrid.WithSync(sync))
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
