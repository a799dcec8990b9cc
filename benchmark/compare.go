package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// benchmarkFile is the part of BENCHMARK.json compare needs: which way
// each end-to-end metric is better and how far it may worsen.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// readSet loads the end-to-end result files (-out) of one directory,
// grouped by workload and ordered by file name, which is run order for
// files named <workload>.<run>.json.
func readSet(dir string) (map[string][]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	set := map[string][]*result{}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		r := new(result)
		if err := json.Unmarshal(data, r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if r.Workload == "" || r.Trace {
			continue // traced runs carry no end-to-end metrics
		}
		set[r.Workload] = append(set[r.Workload], r)
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no end-to-end result files", dir)
	}
	return set, nil
}

// comparable refuses two runs whose numbers do not mean the same thing:
// another toolchain or machine shape, another amount of work, or a run
// cut short by its deadline.
func comparable(a, b *result) error {
	switch {
	case a.GoVersion != b.GoVersion:
		return fmt.Errorf("go_version %s vs %s", a.GoVersion, b.GoVersion)
	case a.NProc != b.NProc || a.GOMAXPROCS != b.GOMAXPROCS:
		return fmt.Errorf("nproc/GOMAXPROCS %d/%d vs %d/%d", a.NProc, a.GOMAXPROCS, b.NProc, b.GOMAXPROCS)
	case a.Seconds != b.Seconds || a.OpsPlanned != b.OpsPlanned || a.WarmupOps != b.WarmupOps:
		return fmt.Errorf("work differs: %d+%d ops for %gs vs %d+%d ops for %gs",
			a.WarmupOps, a.OpsPlanned, a.Seconds, b.WarmupOps, b.OpsPlanned, b.Seconds)
	case a.Truncated || b.Truncated || a.Ops != b.Ops:
		return fmt.Errorf("a run was truncated: %d vs %d of %d ops", a.Ops, b.Ops, a.OpsPlanned)
	case a.Samples["op_p90_ms"] != b.Samples["op_p90_ms"]:
		return fmt.Errorf("op_p90_ms read from different samples: %+v vs %+v", a.Samples["op_p90_ms"], b.Samples["op_p90_ms"])
	}
	return nil
}

// compareMain is `benchmark compare [-aa] A/ B/`: A is the parent's set
// of result files, B the change's. It prints one table per workload and
// returns the exit code: 1 when a metric regressed, or, with -aa (two
// sets of the same code), when the sets do not agree within the bound
// or a spread is wider than its bound.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	aa := fs.Bool("aa", false, "the two sets ran the same code: assert they agree within every bound")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare [-aa] A/ B/")
		return 2
	}
	bad, err := compareDirs("BENCHMARK.json", fs.Arg(0), fs.Arg(1), *aa)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark compare:", err)
		return 1
	}
	if bad > 0 {
		return 1
	}
	return 0
}

func compareDirs(benchPath, dirA, dirB string, aa bool) (bad int, err error) {
	bench, err := readBenchmarkFile(benchPath)
	if err != nil {
		return 0, err
	}
	a, err := readSet(dirA)
	if err != nil {
		return 0, err
	}
	b, err := readSet(dirB)
	if err != nil {
		return 0, err
	}
	return compareReport(os.Stdout, bench, a, b, aa)
}

// compareReport prints the comparison and returns how many rows fail
// it.
func compareReport(out *os.File, bench *benchmarkFile, a, b map[string][]*result, aa bool) (bad int, err error) {
	for _, wl := range bench.Workloads {
		ra, rb := a[wl.Name], b[wl.Name]
		if len(ra) == 0 && len(rb) == 0 {
			continue
		}
		if len(ra) != len(rb) {
			return 0, fmt.Errorf("%s: %d runs in A, %d in B: runs are compared in pairs", wl.Name, len(ra), len(rb))
		}
		failedA, failedB := 0, 0
		for i := range ra {
			if err := comparable(ra[0], ra[i]); err != nil {
				return 0, fmt.Errorf("%s: A's runs are not comparable with each other: %w", wl.Name, err)
			}
			if err := comparable(ra[i], rb[i]); err != nil {
				return 0, fmt.Errorf("%s: pair %d is not comparable: %w", wl.Name, i, err)
			}
			if ra[i].Seed != rb[i].Seed {
				return 0, fmt.Errorf("%s: pair %d ran seeds %d and %d", wl.Name, i, ra[i].Seed, rb[i].Seed)
			}
			failedA += ra[i].Failed
			failedB += rb[i].Failed
		}
		fmt.Fprintf(out, "%s: %d pairs of %d ops; failed ops A %d, B %d\n", wl.Name, len(ra), ra[0].Ops, failedA, failedB)
		if failedB > failedA || (aa && failedA+failedB > 0) {
			fmt.Fprintf(out, "  FAILED OPS: a gain does not count when more operations fail than at the parent\n")
			bad++
		}
		fmt.Fprintf(out, "  %-16s %-6s %36s %36s %8s %7s %5s  %s\n", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]", "worse", "bound", "wins", "verdict")
		for _, m := range bench.EndToEnd {
			va, vb := make([]float64, len(ra)), make([]float64, len(rb))
			for i := range ra {
				va[i], vb[i] = ra[i].Metrics[m.Name].Value, rb[i].Metrics[m.Name].Value
			}
			c := compareSets(va, vb, m.Better == "higher", m.Bound)
			note := ""
			if aa {
				// Same code on both sides: "improved" is as much a
				// disagreement as "regressed".
				switch {
				case math.Abs(c.Worse) > m.Bound:
					c.Verdict, note = regressed, " (A/A sets disagree)"
				case c.SpreadA > m.Bound || spread(vb) > m.Bound:
					c.Verdict = unresolved
				default:
					c.Verdict = unchanged
				}
			}
			if c.Verdict == regressed || (aa && c.Verdict == unresolved && m.Name != "setup_s") {
				bad++
			}
			fmt.Fprintf(out, "  %-16s %-6s %36s %36s %+7.2f%% %6.1f%% %2d/%-2d  %s%s\n", m.Name, m.Unit,
				fmtSummary(c.A), fmtSummary(c.B), 100*c.Worse, 100*m.Bound, c.Wins, len(ra), c.Verdict, note)
		}
	}
	return bad, nil
}

func fmtSummary(s summary) string {
	return fmt.Sprintf("%.6g [%.6g, %.6g]", s.Median, s.Q1, s.Q3)
}
