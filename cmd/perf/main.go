// Command perf runs the simulator's sweep dimensions and single
// declarative queries. It pins nothing and gates nothing: virtual times
// are pinned by `go test` (the sweep golden in internal/bench, the
// figure-case goldens) and host speed is measured by benchmark/.
//
// Usage:
//
//	go run ./cmd/perf -sweep coll,topo,scale [-tuning policy=cost,...] [-out sweeps.json]
//	go run ./cmd/perf -sweep noise,tuned [-noiseseed 42]
//	go run ./cmd/perf -sweep scale -scalemax 8192 [-engine event] [-cpuprofile cpu.pprof]
//	go run ./cmd/perf -spec query.json
//	go run ./cmd/perf -collective allgather -shape 64x24 -sizes 64,4096
//
// The last two forms are query mode: perf executes one declarative
// spec.Query — from a JSON file (-spec) or assembled from flags
// (-collective, -shape, -sizes, -iters, -fold plus the shared -machine
// and -tuning) — and prints the spec.Result as JSON. The same Query
// posted to cmd/serverd returns a bit-identical result. With -engine
// both (the default) the query also runs on the other execution
// backend and perf fails unless the virtual times agree exactly;
// -engine goroutine or -engine event runs that one backend only.
//
// -sweep selects report dimensions (comma-separated, or "all"):
//
//	coll     the collective selection engine's algorithm choices and
//	         crossover points per message size
//	topo     the multi-level topology dimension (levels x ppn)
//	scale    the scale-out dimension: size-only allgather/allreduce up
//	         to -scalemax ranks on the -engine backends, cross-checked
//	         when both run
//	stencil  the process-topology dimension: 4-dim grid halo exchanges
//	         (CartCreate + NeighborAlltoall) per halo width up to
//	         -scalemax ranks
//	noise    the robustness dimension: an allreduce ladder per
//	         deterministic noise level, refereed across engines and
//	         world-reuse paths
//	tuned    the measured-selection dimension: a congested allreduce
//	         ladder under the table, cost and measured tuning policies,
//	         with the tuning store's persistence round trip in the loop
//
// -cpuprofile / -memprofile write pprof profiles covering the run.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/sim"
	"repro/internal/spec"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(os.Stderr, "perf:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	out := fs.String("out", "", "write the JSON report (or query result) to this path")
	sweep := fs.String("sweep", "", "sweep dimensions: coll,topo,scale,stencil,noise,tuned or all")
	scaleMax := fs.Int("scalemax", 65536, "scale and stencil sweeps: largest rank count to run")
	noiseSeed := fs.Int64("noiseseed", 42, "noise and tuned sweeps: seed keying every noisy level")
	engineSpec := fs.String("engine", "both",
		"execution backend for the scale sweep and query mode: goroutine, event or both (cross-checked)")
	tuningSpec := fs.String("tuning", "policy=cost",
		"coll tuning spec for the coll/topo sweeps and flag-built queries (see TUNING.md)")
	machine := fs.String("machine", "hazelhen-cray", "machine profile")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile to this path")
	memProfile := fs.String("memprofile", "", "write a heap profile to this path")
	specPath := fs.String("spec", "", "query mode: run the spec.Query in this JSON file")
	collective := fs.String("collective", "", "query mode: collective to simulate (enables query mode)")
	shape := fs.String("shape", "4x8", "query mode: topology as NODESxPPN")
	sizesSpec := fs.String("sizes", "1024", "query mode: comma-separated size ladder in bytes")
	iters := fs.Int("iters", 1, "query mode: operations per ladder point")
	fold := fs.String("fold", "", "query mode: rank-symmetry folding: auto, off or a unit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	var err error
	switch {
	case *specPath != "" && *collective != "":
		err = fmt.Errorf("-spec and -collective are mutually exclusive")
	case *specPath != "" || *collective != "":
		var q *spec.Query
		if *specPath == "" {
			q, err = queryFromFlags(*collective, *shape, *sizesSpec, *machine, *tuningSpec, *fold, *iters)
		} else if data, rerr := os.ReadFile(*specPath); rerr != nil {
			err = rerr
		} else {
			q, err = spec.Parse(data)
		}
		if err == nil {
			ref, challengers := enginePaths(q, *engineSpec)
			err = runQuery(q, ref, challengers, *out, stdout, stderr)
		}
	case *sweep != "":
		err = runSweeps(*sweep, *machine, *tuningSpec, *engineSpec, *scaleMax, *noiseSeed, *out, stdout)
	default:
		err = fmt.Errorf("nothing to do: give -sweep, -spec or -collective (host speed is measured by `bash benchmark/run.sh`)")
	}
	if err != nil {
		return err
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		runtime.GC()
		return pprof.WriteHeapProfile(f)
	}
	return nil
}

// runSweeps runs the selected dimensions, printing each and writing the
// report to out when given.
func runSweeps(list, machine, tuningSpec, engineSpec string, scaleMax int, seed int64, out string, stdout io.Writer) error {
	dims, err := bench.SelectDimensions(list)
	if err != nil {
		return err
	}
	st, err := spec.ParseTuning(tuningSpec)
	if err != nil {
		return err
	}
	tun, err := st.Coll()
	if err != nil {
		return err
	}
	model, err := sim.Profile(machine)
	if err != nil {
		return err
	}
	var engines []sim.Engine // empty = both
	if engineSpec != "both" {
		e, err := sim.ParseEngine(engineSpec)
		if err != nil {
			return fmt.Errorf("-engine: %w (or \"both\")", err)
		}
		engines = []sim.Engine{e}
	}
	rep, err := bench.RunSweeps(dims, bench.SweepConfig{
		Model: model, Tuning: tun, MaxRanks: scaleMax, Engines: engines, Seed: seed,
	}, stdout)
	if err != nil {
		return err
	}
	if out == "" {
		return nil
	}
	if err := writeJSON(rep, out, nil); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %s\n", out)
	return nil
}

// writeJSON writes v as indented JSON to path, or to stdout when path
// is empty.
func writeJSON(v any, path string, stdout io.Writer) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if path != "" {
		return os.WriteFile(path, data, 0o644)
	}
	_, err = stdout.Write(data)
	return err
}

// enginePaths resolves -engine for query mode. "both" keeps the query's
// own engine as the reference — so the printed Result is the one
// cmd/serverd returns for the same Query — and adds the other backend
// as a challenger; a named engine runs alone.
func enginePaths(q *spec.Query, engineSpec string) (ref spec.Path, challengers []spec.Path) {
	if engineSpec != "both" {
		return spec.Path{Name: engineSpec, Engine: engineSpec}, nil
	}
	other := sim.EngineEvent.String()
	if q.Engine == other {
		other = sim.EngineGoroutine.String()
	}
	return spec.Path{Name: q.Engine}, []spec.Path{{Name: other, Engine: other}}
}

// runQuery executes one query through spec.Referee and prints the
// reference path's spec.Result as indented JSON (to out when given,
// stdout otherwise). With challengers it fails unless every path's
// virtual times are bit-identical.
func runQuery(q *spec.Query, ref spec.Path, challengers []spec.Path, out string, stdout, stderr io.Writer) error {
	res, err := spec.Referee(context.Background(), q, ref, challengers...)
	if err != nil {
		return err
	}
	if len(challengers) > 0 {
		fmt.Fprintln(stderr, "engines agree bit-identically")
	}
	return writeJSON(res, out, stdout)
}

// queryFromFlags assembles a Query from the query-mode flag surface.
func queryFromFlags(collective, shape, sizesSpec, machine, tuningSpec, fold string, iters int) (*spec.Query, error) {
	nodes, ppn, ok := strings.Cut(shape, "x")
	if !ok {
		return nil, fmt.Errorf("-shape %q is not NODESxPPN", shape)
	}
	n, err := strconv.Atoi(nodes)
	if err != nil {
		return nil, fmt.Errorf("-shape: %w", err)
	}
	p, err := strconv.Atoi(ppn)
	if err != nil {
		return nil, fmt.Errorf("-shape: %w", err)
	}
	var sizes []int
	for _, s := range strings.Split(sizesSpec, ",") {
		b, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			return nil, fmt.Errorf("-sizes: %w", err)
		}
		sizes = append(sizes, b)
	}
	tun, err := spec.ParseTuning(tuningSpec)
	if err != nil {
		return nil, err
	}
	q := &spec.Query{
		Machine:    machine,
		Topology:   spec.Topology{Nodes: n, PPN: p},
		Collective: collective,
		Sizes:      sizes,
		Iters:      iters,
		Fold:       fold,
		Tuning:     tun,
	}
	if err := q.Canonicalize(); err != nil {
		return nil, err
	}
	return q, nil
}
