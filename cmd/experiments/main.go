// Command experiments regenerates every table and figure of the paper's
// evaluation section (Figs. 7-12) in one run, writing the series to
// stdout (and optionally a file). This is the one-button reproduction
// behind EXPERIMENTS.md.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/bench"
	"repro/internal/spec"
)

func main() {
	spec.InstallEnvTuning()
	out := flag.String("o", "", "also write the report to this file")
	fine := flag.Bool("fine", false, "full power-of-two element sweeps (slower)")
	flag.Parse()

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = io.MultiWriter(os.Stdout, f)
	}

	o := bench.FigOpts{Fine: *fine}
	start := time.Now()
	fmt.Fprintln(w, "Reproduction of Zhou, Gracia, Schneider (ICPP'19):")
	fmt.Fprintln(w, "\"MPI Collectives for Multi-core Clusters: Optimized Performance of the Hybrid MPI+MPI Parallel Codes\"")
	fmt.Fprintln(w, "All times are deterministic virtual times on the simulated clusters (see DESIGN.md).")

	steps := []struct {
		name string
		run  func() error
	}{
		{"Fig 7", func() error { t, err := bench.Fig7(o); return one(w, t, err) }},
		{"Fig 8", func() error { ts, err := bench.Fig8(o); return many(w, ts, err) }},
		{"Fig 9", func() error { ts, err := bench.Fig9(o); return many(w, ts, err) }},
		{"Fig 10", func() error { t, err := bench.Fig10(o); return one(w, t, err) }},
		{"Fig 11", func() error { ts, err := bench.Fig11(o, nil); return many(w, ts, err) }},
		{"Fig 12", func() error { t, err := bench.Fig12(o); return one(w, t, err) }},
	}
	for _, s := range steps {
		fmt.Fprintf(os.Stderr, "[experiments] %s...\n", s.name)
		if err := s.run(); err != nil {
			fatal(fmt.Errorf("%s: %w", s.name, err))
		}
	}
	fmt.Fprintf(w, "\nAll figures regenerated in %.1fs wall time.\n", time.Since(start).Seconds())
}

func one(w io.Writer, t *bench.Table, err error) error {
	if err != nil {
		return err
	}
	return t.Fprint(w)
}

func many(w io.Writer, ts []*bench.Table, err error) error {
	if err != nil {
		return err
	}
	for _, t := range ts {
		if err := t.Fprint(w); err != nil {
			return err
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
