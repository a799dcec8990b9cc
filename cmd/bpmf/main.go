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
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/bpmf"
	"repro/internal/mpi"
	"repro/internal/sim"
	"repro/internal/spec"
)

func main() {
	spec.InstallEnvTuning()
	cores := flag.Int("cores", 0, "single point: core count; 0 = full Fig. 12 sweep")
	real := flag.Bool("real", false, "run the actual Gibbs sampler (small scale) and report RMSE")
	iters := flag.Int("iters", 0, "Gibbs iterations (default 20, the paper's setting)")
	machine := flag.String("machine", "hazelhen-cray", "machine profile")
	flag.Parse()

	if *cores == 0 {
		t, err := bench.Fig12(bench.FigOpts{})
		if err != nil {
			fatal(err)
		}
		if err := t.Fprint(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	if err := runPoint(*machine, *cores, *real, *iters); err != nil {
		fatal(err)
	}
}

func runPoint(machine string, cores int, real bool, iters int) error {
	mk, ok := sim.Profiles()[machine]
	if !ok {
		return fmt.Errorf("unknown machine %q", machine)
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
		w, err := mpi.NewWorld(mk(), topo, opts...)
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
		fmt.Printf("%-9s cores=%d iters=%d: TotalTime %10.1f ms", name, cores, c.Iters, res.Makespan.Ms())
		if real && len(res.RMSE) > 0 {
			fmt.Printf("  RMSE %.4f -> %.4f", res.RMSE[0], res.RMSE[len(res.RMSE)-1])
		}
		fmt.Println()
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bpmf:", err)
	os.Exit(1)
}
