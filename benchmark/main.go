// Command benchmark is the repository's benchmark: four fixed-work
// workloads measured end to end from outside the program, and a traced
// run that breaks each one down by layer. README.md in this directory
// says what each metric means, how bounds were sized and how to compare
// two commits.
//
// Usage:
//
//	go run ./benchmark -workload fig-micro [-seed 1] [-seconds 20] [-trace 0|1] [-out run.json] [-spans spans.json]
//	go run ./benchmark compare [-aa] A/ B/
//	go run ./benchmark -update-golden
//
// The last line of standard output is the result the driver reads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// metricValue is one metric as printed: the number as measured and its
// unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverLine is the object printed as the last line of standard output.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// sampleCount says how many samples a percentile was read from, at
// which percentile it was really read, and how many samples lay beyond.
type sampleCount struct {
	N          int     `json:"n"`
	Percentile float64 `json:"percentile"`
	Beyond     int     `json:"beyond"`
}

// result is what -out writes: the driver line plus everything needed to
// refuse a comparison between runs that are not comparable.
type result struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	GoVersion  string  `json:"go_version"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	OpsPlanned int     `json:"ops_planned"`
	Ops        int     `json:"ops"`
	WarmupOps  int     `json:"warmup_ops"`
	// Truncated is set when the timed loop hit its deadline before the
	// planned ops were done (a machine much slower than the one the
	// workloads were sized on).
	Truncated bool    `json:"truncated"`
	FailRatio float64 `json:"fail_ratio"`
	// RefKernelUs is the run's median reference-kernel time and
	// HostFactor what every timing was multiplied by because of it;
	// Raw holds the timings as the clock read them.
	RefKernelUs float64                `json:"ref_kernel_us"`
	HostFactor  float64                `json:"host_factor"`
	Raw         map[string]float64     `json:"raw,omitempty"`
	Samples     map[string]sampleCount `json:"samples"`
	SetupS      []float64              `json:"setup_s_repetitions"`
	// Spread holds, for per-layer timings, the quartiles around the
	// value in Metrics.
	Spread map[string]summary `json:"spread,omitempty"`
	driverLine
}

// metricSpec names a metric and its unit; BENCHMARK.json lists the same
// names (a test keeps the two in step).
type metricSpec struct{ name, unit string }

var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_kb_per_op", "KiB"},
	{"peak_rss_mb", "MiB"},
}

// setupReps is how many times a run sets its workload up; setup_s is
// the median, because one set-up is a single noisy sample.
const setupReps = 3

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Float64("seconds", 20, "length of the timed section the fixed work is sized for")
	trace := flag.Int("trace", 0, "1 runs the traced, per-layer measurement instead of the end-to-end one")
	out := flag.String("out", "", "also write the full result (with provenance and sample counts) to this file")
	spans := flag.String("spans", "", "with -trace 1, write the workload's spans to this file")
	update := flag.Bool("update-golden", false, "re-pin "+goldenPath+" from this build and exit")
	flag.Parse()

	if runtime.NumCPU() < procs {
		fatal(fmt.Errorf("the workloads pin GOMAXPROCS=%d; this machine has %d CPU", procs, runtime.NumCPU()))
	}
	if *update {
		if err := updateGolden(); err != nil {
			fatal(err)
		}
		return
	}
	w, ok := findWorkload(*name)
	if !ok {
		fatal(fmt.Errorf("unknown workload %q; choose one of %s", *name, strings.Join(workloadNames(), ", ")))
	}
	if *seconds <= 0 || flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	g, err := loadGolden()
	if err != nil {
		fatal(err)
	}
	runtime.GOMAXPROCS(procs)

	var res *result
	if *trace == 1 {
		res, err = runTraced(w, *seed, *seconds, g, fullSizing, *spans)
	} else {
		res, err = runEndToEnd(w, *seed, *seconds, g)
	}
	if err != nil {
		fatal(err)
	}
	res.print(os.Stdout)
	if *out != "" {
		buf, err := json.MarshalIndent(res, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fatal(err)
		}
	}
	line, err := json.Marshal(res.driverLine)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// newResult fills in the provenance every result carries.
func newResult(w workload, seed int64, seconds float64, m *measurement) *result {
	failed := min(m.failed, len(m.latNs))
	return &result{
		Workload: w.name, Seed: seed, Seconds: seconds,
		GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		OpsPlanned: m.opsPlanned, Ops: len(m.latNs), WarmupOps: m.warmup,
		Truncated:   len(m.latNs) < m.opsPlanned,
		FailRatio:   float64(failed) / float64(len(m.latNs)),
		RefKernelUs: m.refNs / 1e3, HostFactor: m.hostFactor(),
		Samples: map[string]sampleCount{},
		SetupS:  m.setups,
		driverLine: driverLine{
			Correct: failed == 0, Attempted: len(m.latNs), Failed: failed,
			Metrics: map[string]metricValue{},
		},
	}
}

// runEndToEnd measures the workload with tracing off and reports the
// end-to-end metrics.
func runEndToEnd(w workload, seed int64, seconds float64, g *golden) (*result, error) {
	m, err := measure(w, seed, seconds, setupReps, nil, g)
	if err != nil {
		return nil, err
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	res := newResult(w, seed, seconds, m)
	n := float64(len(m.latNs))
	p50, p90, pct := m.latencyMs()
	res.Samples["op_p50_ms"] = sampleCount{N: len(m.latNs), Percentile: 0.5, Beyond: len(m.latNs) / 2}
	res.Samples["op_p90_ms"] = sampleCount{N: len(m.latNs), Percentile: pct, Beyond: len(m.latNs) - int(math.Round(pct*n))}
	res.Raw = map[string]float64{
		"op_p50_ms": p50, "op_p90_ms": p90,
		"ops_per_s": n / m.wall.Seconds(), "cpu_ms_per_op": m.cpu.Seconds() * 1e3 / n,
	}
	f := m.hostFactor()
	values := map[string]float64{
		"setup_s":         median(m.setups),
		"op_p50_ms":       p50 * f,
		"op_p90_ms":       p90 * f,
		"ops_per_s":       res.Raw["ops_per_s"] / f,
		"cpu_ms_per_op":   res.Raw["cpu_ms_per_op"] * f,
		"allocs_per_op":   float64(m.mallocs) / n,
		"alloc_kb_per_op": float64(m.allocBytes) / 1024 / n,
		"peak_rss_mb":     rss,
	}
	for _, spec := range endToEnd {
		res.Metrics[spec.name] = metricValue{values[spec.name], spec.unit}
	}
	return res, nil
}

// print writes the result for a reader: provenance, then one line per
// metric with its unit (and quartiles where it has them).
func (r *result) print(f *os.File) {
	fmt.Fprintf(f, "workload %s seed %d seconds %g trace %v | %s nproc %d GOMAXPROCS %d\n",
		r.Workload, r.Seed, r.Seconds, r.Trace, r.GoVersion, r.NProc, r.GOMAXPROCS)
	fmt.Fprintf(f, "ops %d of %d planned (+%d warm-up), failed %d, fail_ratio %g\n",
		r.Ops, r.OpsPlanned, r.WarmupOps, r.Failed, r.FailRatio)
	fmt.Fprintf(f, "reference kernel %.1f us, timings x %.4f", r.RefKernelUs, r.HostFactor)
	for _, name := range []string{"op_p50_ms", "op_p90_ms", "ops_per_s", "cpu_ms_per_op"} {
		if raw, ok := r.Raw[name]; ok {
			fmt.Fprintf(f, "; raw %s %.6g", name, raw)
		}
	}
	fmt.Fprintln(f)
	if r.Truncated {
		fmt.Fprintln(f, "TRUNCATED: the timed loop hit its deadline; this run is not comparable with a full one")
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(f, "  %-34s %14.6g %-6s", name, m.Value, m.Unit)
		if s, ok := r.Samples[name]; ok {
			fmt.Fprintf(f, " (p%.1f of %d samples, %d beyond)", 100*s.Percentile, s.N, s.Beyond)
		}
		if s, ok := r.Spread[name]; ok {
			fmt.Fprintf(f, " (quartiles %.6g .. %.6g over %d)", s.Q1, s.Q3, s.N)
		}
		fmt.Fprintln(f)
	}
}

// updateGolden re-pins every op component by running each workload
// briefly at goldenSeed with an empty pin table.
func updateGolden() error {
	g := &golden{learned: map[string]int64{}, updating: true}
	runtime.GOMAXPROCS(procs)
	for _, w := range workloads {
		m, err := measure(w, goldenSeed, 2/w.opsPerSecond, 1, nil, g)
		if err != nil {
			return err
		}
		if m.failed > 0 {
			return fmt.Errorf("%s: %d ops failed while pinning: a component does not repeat", w.name, m.failed)
		}
	}
	return g.save()
}
