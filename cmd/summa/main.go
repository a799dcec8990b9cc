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
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/bench"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/summa"
)

func main() {
	spec.InstallEnvTuning()
	block := flag.Int("block", 0, "per-core block size b (panel); 0 = all of 8, 64, 128, 256")
	cores := flag.Int("cores", 0, "single point: core count (perfect square); 0 = full sweep")
	verify := flag.Bool("verify", false, "run with real data and verify the product (small sizes)")
	machine := flag.String("machine", "hazelhen-cray", "machine profile")
	flag.Parse()

	if *cores != 0 {
		if err := runPoint(*machine, *cores, pick(*block, 64), *verify); err != nil {
			fatal(err)
		}
		return
	}
	tables, err := bench.Fig11(bench.FigOpts{})
	if err != nil {
		fatal(err)
	}
	for _, t := range tables {
		if *block != 0 && !containsBlock(t.Name, *block) {
			continue
		}
		if err := t.Fprint(os.Stdout); err != nil {
			fatal(err)
		}
	}
}

func containsBlock(name string, b int) bool {
	return strings.Contains(name, fmt.Sprintf("(%dx%d ", b, b))
}

func pick(v, def int) int {
	if v == 0 {
		return def
	}
	return v
}

func runPoint(machine string, cores, block int, verify bool) error {
	mk, ok := sim.Profiles()[machine]
	if !ok {
		return fmt.Errorf("unknown machine %q", machine)
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
		w, err := mpi.NewWorld(mk(), topo, opts...)
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
		fmt.Printf("%-10s cores=%d b=%d: %12.2f us", name, cores, block, res.Makespan.Us())
		if verify {
			fmt.Printf("  verified=%v", res.Verified)
		}
		fmt.Println()
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "summa:", err)
	os.Exit(1)
}
