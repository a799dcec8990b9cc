// Command bpmf runs one point of the BPMF application benchmark
// (Fig. 12): the TotalTime of Ori_BPMF (pure-MPI allgather) and Hy_BPMF
// (hybrid allgather) over 20 Gibbs iterations on a chembl_20-shaped
// synthetic dataset. The default point, 240 cores on the Cray profile,
// is a row of cmd/experiments' Fig. 12 report, which prints the whole
// sweep.
//
// Usage:
//
//	bpmf                    # 240 cores
//	bpmf -cores 1024
//	bpmf -cores 16 -real    # actually sample (small scale), report RMSE
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/bpmf"
	"repro/internal/mpi"
	"repro/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "bpmf:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bpmf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cores := fs.Int("cores", 240, "core count")
	real := fs.Bool("real", false, "run the actual Gibbs sampler (small scale) and report RMSE")
	iters := fs.Int("iters", 0, "Gibbs iterations (0 = 20, the paper's setting; 5 with -real)")
	machine := fs.String("machine", "hazelhen-cray", "machine profile")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cores <= 0 {
		return fmt.Errorf("-cores %d: must be positive", *cores)
	}
	if *iters < 0 {
		return fmt.Errorf("-iters %d: must not be negative", *iters)
	}
	return runPoint(stdout, *machine, *cores, *real, *iters)
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
