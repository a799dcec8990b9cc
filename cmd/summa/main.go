// Command summa runs one point of the SUMMA application benchmark
// (Fig. 11): Ori_SUMMA (pure-MPI broadcasts) vs Hy_SUMMA (hybrid
// broadcasts). The default point, 64 cores with 64x64 blocks on the
// Cray profile, is a row of cmd/experiments' Fig. 11 report, which
// prints the whole sweep.
//
// Usage:
//
//	summa                                  # 64 cores, 64x64 blocks
//	summa -cores 256 -block 128
//	summa -cores 4 -block 4 -verify        # real data, checked product
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/bench"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/summa"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "summa:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("summa", flag.ContinueOnError)
	fs.SetOutput(stderr)
	cores := fs.Int("cores", 64, "core count (a perfect square: the process grid)")
	block := fs.Int("block", 64, "per-core block size b")
	verify := fs.Bool("verify", false, "run with real data and verify the product (small sizes)")
	machine := fs.String("machine", "hazelhen-cray", "machine profile")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *cores <= 0 {
		return fmt.Errorf("-cores %d: must be positive", *cores)
	}
	if *block <= 0 {
		return fmt.Errorf("-block %d: must be positive", *block)
	}
	return runPoint(stdout, *machine, *cores, *block, *verify)
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
