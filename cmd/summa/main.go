// Command summa runs the SUMMA application benchmark (Fig. 11):
// Ori_SUMMA (pure-MPI broadcasts) vs Hy_SUMMA (hybrid broadcasts) on the
// simulated Cray profile.
//
// Usage:
//
//	summa                # the full Fig. 11 sweep (all four panels)
//	summa -block 64      # one panel
//	summa -cores 256 -block 128 -verify=false   # one point
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"

	"repro/internal/bench"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/summa"
)

func main() {
	spec.InstallEnvTuning()
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "summa:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("summa", flag.ContinueOnError)
	fs.SetOutput(stderr)
	block := fs.Int("block", 0, "per-core block size b (one panel); 0 = the paper's 8, 64, 128, 256")
	cores := fs.Int("cores", 0, "single point: core count (perfect square); 0 = full sweep")
	verify := fs.Bool("verify", false, "single point: run with real data and verify the product (small sizes)")
	machine := fs.String("machine", "hazelhen-cray", "single point: machine profile")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *block < 0 {
		return fmt.Errorf("-block %d: block size must be positive (0 = all four panels)", *block)
	}
	if *cores != 0 {
		return runPoint(stdout, *machine, *cores, pick(*block, 64), *verify)
	}
	var stray error
	fs.Visit(func(f *flag.Flag) {
		if stray == nil && slices.Contains([]string{"verify", "machine"}, f.Name) {
			stray = fmt.Errorf("-%s is not read by the Fig. 11 sweep (give -cores for a single point)", f.Name)
		}
	})
	if stray != nil {
		return stray
	}
	var blocks []int
	if *block != 0 {
		blocks = []int{*block}
	}
	tables, err := bench.Fig11(bench.FigOpts{}, blocks)
	if err != nil {
		return err
	}
	for _, t := range tables {
		if err := t.Fprint(stdout); err != nil {
			return err
		}
	}
	return nil
}

func pick(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

func runPoint(out io.Writer, machine string, cores, block int, verify bool) error {
	model, err := sim.Profile(machine)
	if err != nil {
		return err
	}
	grid := 1
	for grid*grid < cores {
		grid++
	}
	if grid*grid != cores {
		return fmt.Errorf("cores %d is not a perfect square", cores)
	}
	topo, err := sim.NewTopology(bench.ShapeFor(cores))
	if err != nil {
		return err
	}
	for _, hy := range []bool{false, true} {
		var opts []mpi.Option
		if verify {
			opts = append(opts, mpi.WithRealData())
		}
		w, err := mpi.NewWorld(model, topo, opts...)
		if err != nil {
			return err
		}
		res, err := summa.Run(w, summa.Config{GridDim: grid, BlockDim: block, Hybrid: hy, Verify: verify})
		if err != nil {
			return err
		}
		name := "Ori_SUMMA"
		if hy {
			name = "Hy_SUMMA"
		}
		fmt.Fprintf(out, "%-10s cores=%d b=%d: %12.2f us", name, cores, block, res.Makespan.Us())
		if verify {
			fmt.Fprintf(out, "  verified=%v", res.Verified)
		}
		fmt.Fprintln(out)
	}
	return nil
}
