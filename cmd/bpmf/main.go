// Command bpmf runs the BPMF application benchmark (Fig. 12): the
// TotalTime ratio of Ori_BPMF (pure-MPI allgather) to Hy_BPMF (hybrid
// allgather) over 20 Gibbs iterations on a chembl_20-shaped synthetic
// dataset.
//
// Usage:
//
//	bpmf                    # the full Fig. 12 sweep
//	bpmf -cores 240         # one point
//	bpmf -cores 16 -real    # actually sample (small scale), report RMSE
//
// The sweep runs the paper's configuration: -machine, -real and -iters
// belong to a single point and are errors without -cores.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/bench"
	"repro/internal/bpmf"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/spec"
)

func main() {
	spec.InstallEnvTuning()
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "bpmf:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bpmf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cores := fs.Int("cores", 0, "single point: core count; 0 = full Fig. 12 sweep")
	real := fs.Bool("real", false, "single point: run the actual Gibbs sampler (small scale) and report RMSE")
	iters := fs.Int("iters", 0, "single point: Gibbs iterations (default 20, the paper's setting)")
	machine := fs.String("machine", "hazelhen-cray", "single point: machine profile")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cores != 0 {
		return runPoint(stdout, *machine, *cores, *real, *iters)
	}
	var stray error
	fs.Visit(func(f *flag.Flag) {
		if stray == nil && slices.Contains([]string{"real", "iters", "machine"}, f.Name) {
			stray = fmt.Errorf("-%s is not read by the Fig. 12 sweep (give -cores for a single point)", f.Name)
		}
	})
	if stray != nil {
		return stray
	}
	t, err := bench.Fig12(bench.FigOpts{})
	if err != nil {
		return err
	}
	return t.Fprint(stdout)
}

func runPoint(out io.Writer, machine string, cores int, real bool, iters int) error {
	model, err := sim.Profile(machine)
	if err != nil {
		return err
	}
	topo, err := sim.NewTopology(bench.ShapeFor(cores))
	if err != nil {
		return err
	}
	cfg := bench.Fig12Config()
	if real {
		// Shrink to something a laptop can actually sample.
		cfg.Users, cfg.Items, cfg.Iters = 960, 240, 5
		cfg.Real = true
	}
	if iters > 0 {
		cfg.Iters = iters
	}
	for _, hy := range []bool{false, true} {
		var opts []mpi.Option
		if real {
			opts = append(opts, mpi.WithRealData())
		}
		w, err := mpi.NewWorld(model, topo, opts...)
		if err != nil {
			return err
		}
		c := cfg
		c.Hybrid = hy
		res, err := bpmf.Run(w, c)
		if err != nil {
			return err
		}
		name := "Ori_BPMF"
		if hy {
			name = "Hy_BPMF"
		}
		fmt.Fprintf(out, "%-9s cores=%d iters=%d: TotalTime %10.1f ms", name, cores, c.Iters, res.Makespan.Ms())
		if real && len(res.RMSE) > 0 {
			fmt.Fprintf(out, "  RMSE %.4f -> %.4f", res.RMSE[0], res.RMSE[len(res.RMSE)-1])
		}
		fmt.Fprintln(out)
	}
	return nil
}
