// Command experiments regenerates every table and figure of the paper's
// evaluation section (Figs. 7-12) in one run, writing the report to
// stdout and its progress and wall time to stderr. It is the one
// program that prints the figures, and the reproduction behind
// EXPERIMENTS.md; its coarse report is pinned by
// testdata/report.golden.
//
// Usage:
//
//	experiments              # coarse element grid, a few seconds
//	experiments -fine        # full power-of-two element grid
//	experiments | tee report.txt
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/bench"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fine := fs.Bool("fine", false, "full power-of-two element sweeps (slower)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	o := bench.FigOpts{Fine: *fine}
	start := time.Now()
	fmt.Fprintln(stdout, "Reproduction of Zhou, Gracia, Schneider (ICPP'19):")
	fmt.Fprintln(stdout, "\"MPI Collectives for Multi-core Clusters: Optimized Performance of the Hybrid MPI+MPI Parallel Codes\"")
	fmt.Fprintln(stdout, "All times are deterministic virtual times on the simulated clusters (see DESIGN.md).")

	steps := []struct {
		name string
		run  func() ([]*bench.Table, error)
	}{
		{"Fig 7", func() ([]*bench.Table, error) { return one(bench.Fig7(o)) }},
		{"Fig 8", func() ([]*bench.Table, error) { return bench.Fig8(o) }},
		{"Fig 9", func() ([]*bench.Table, error) { return bench.Fig9(o) }},
		{"Fig 10", func() ([]*bench.Table, error) { return one(bench.Fig10(o)) }},
		{"Fig 11", func() ([]*bench.Table, error) { return bench.Fig11(o) }},
		{"Fig 12", func() ([]*bench.Table, error) { return one(bench.Fig12(o)) }},
	}
	for _, s := range steps {
		fmt.Fprintf(stderr, "[experiments] %s...\n", s.name)
		tables, err := s.run()
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		for _, t := range tables {
			if err := t.Fprint(stdout); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(stderr, "[experiments] all figures regenerated in %.1fs wall time\n", time.Since(start).Seconds())
	return nil
}

func one(t *bench.Table, err error) ([]*bench.Table, error) {
	return []*bench.Table{t}, err
}
