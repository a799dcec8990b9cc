package bench

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/coll"
	"repro/internal/sim"
)

// SweepConfig carries what the sweep dimensions read from the cmd/perf
// command line; each dimension takes the fields it needs.
type SweepConfig struct {
	Model    *sim.CostModel // machine profile (its Name is the spec machine)
	Tuning   coll.Tuning    // coll, topo
	MaxRanks int            // scale, stencil: largest rank count to run
	Engines  []sim.Engine   // scale: backends to run (empty = both)
	Seed     int64          // noise, tuned
}

// Section is one dimension's part of a Report: it marshals to JSON and
// prints its own human-readable table.
type Section interface {
	Fprint(w io.Writer)
}

// Dimension is one -sweep dimension.
type Dimension struct {
	Name string
	Run  func(SweepConfig) (Section, error)
}

// Dimensions is the table of sweep dimensions, in report order; each
// dimension's file describes what it runs.
var Dimensions = []Dimension{
	{"coll", func(c SweepConfig) (Section, error) { return RunCollSweep(c.Model, c.Tuning), nil }},
	{"topo", func(c SweepConfig) (Section, error) { return RunTopoSweep(c.Model, c.Tuning) }},
	{"scale", func(c SweepConfig) (Section, error) { return RunScaleSweep(c.Model.Name, c.MaxRanks, c.Engines) }},
	{"stencil", func(c SweepConfig) (Section, error) { return RunStencilSweep(c.Model, c.MaxRanks) }},
	{"noise", func(c SweepConfig) (Section, error) { return RunNoiseSweep(c.Model.Name, c.Seed) }},
	{"tuned", func(c SweepConfig) (Section, error) { return RunTunedSweep(c.Model.Name, c.Seed) }},
}

// SelectDimensions resolves a -sweep value — a comma-separated list of
// dimension names, or "all" for the whole table — into table entries,
// in the order listed.
func SelectDimensions(list string) ([]Dimension, error) {
	if list == "all" {
		return Dimensions, nil
	}
	byName := map[string]Dimension{}
	var names []string
	for _, d := range Dimensions {
		byName[d.Name] = d
		names = append(names, d.Name)
	}
	var out []Dimension
	for _, name := range strings.Split(list, ",") {
		d, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown sweep dimension %q (want %s or all)", name, strings.Join(names, ", "))
		}
		out = append(out, d)
	}
	return out, nil
}

// Report is the JSON document cmd/perf -out writes: one
// "<dimension>_sweep" section per dimension run.
type Report map[string]Section

// RunSweeps runs the dimensions in order, printing each section to w as
// it completes.
func RunSweeps(dims []Dimension, cfg SweepConfig, w io.Writer) (Report, error) {
	rep := Report{}
	for _, d := range dims {
		sec, err := d.Run(cfg)
		if err != nil {
			return nil, err
		}
		sec.Fprint(w)
		rep[d.Name+"_sweep"] = sec
	}
	return rep, nil
}
