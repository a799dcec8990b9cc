package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// tiny is a traced run small enough for the tier-1 suite.
var tiny = sizing{tracedOps: 2, tracedOpsCap: 64, probeReps: 2, slopePairs: 1, socketHits: 20}

// checkMetrics asserts a result carries exactly the named metrics, each
// finite and with the unit BENCHMARK.json gives it.
func checkMetrics(t *testing.T, r *result, want map[string]string) {
	t.Helper()
	for name, unit := range want {
		m, ok := r.Metrics[name]
		switch {
		case !ok:
			t.Errorf("%s: %s not emitted", r.Workload, name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: %s = %v", r.Workload, name, m.Value)
		case m.Unit != unit || unit == "":
			t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", r.Workload, name, m.Unit, unit)
		}
	}
	for name := range r.Metrics {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: %s emitted but not in BENCHMARK.json", r.Workload, name)
		}
	}
}

// TestSmoke runs all four workloads end to end and one traced run at
// tiny op counts, and holds the program and BENCHMARK.json to the same
// metric names and units.
func TestSmoke(t *testing.T) {
	if runtime.NumCPU() < procs {
		t.Skip("the workloads pin GOMAXPROCS=2")
	}
	// The benchmark is always run from the repository root: it reads
	// BENCHMARK.json and makes (and removes) its scratch directory there.
	t.Chdir("..")
	bench, err := readBenchmarkFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	endToEndUnits, perLayerUnits := map[string]string{}, map[string]string{}
	for _, m := range bench.EndToEnd {
		endToEndUnits[m.Name] = m.Unit
	}
	for _, m := range bench.PerLayer {
		perLayerUnits[m.Name] = m.Unit
	}
	if len(bench.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the program has %d", len(bench.Workloads), len(workloads))
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	for i, w := range workloads {
		if i < len(bench.Workloads) && bench.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %s in BENCHMARK.json, %s in the program", i, bench.Workloads[i].Name, w.name)
		}
		r, err := runEndToEnd(w, 7, 3/w.opsPerSecond, g)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted != 3 || r.Truncated {
			t.Errorf("%s: correct=%v failed=%d attempted=%d truncated=%v", w.name, r.Correct, r.Failed, r.Attempted, r.Truncated)
		}
		if len(r.SetupS) != setupReps || r.GoVersion == "" || r.NProc == 0 || r.GOMAXPROCS != procs || r.Samples["op_p90_ms"].N != 3 {
			t.Errorf("%s: provenance incomplete: %+v", w.name, r)
		}
		checkMetrics(t, r, endToEndUnits)
	}

	w, _ := findWorkload("serve-warm")
	spans := filepath.Join(t.TempDir(), "spans.json")
	r, err := runTraced(w, 7, 1e-3, g, tiny, spans)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct || !r.Trace {
		t.Errorf("traced run: correct=%v trace=%v failed=%d", r.Correct, r.Trace, r.Failed)
	}
	checkMetrics(t, r, perLayerUnits)
	var written []span
	if data, err := os.ReadFile(spans); err != nil || json.Unmarshal(data, &written) != nil || len(written) == 0 {
		t.Errorf("spans file: %v, %d spans", err, len(written))
	}
	if hit := r.Metrics["server.cache_hit_ratio"].Value; hit <= 0 || hit >= 1 {
		t.Errorf("server.cache_hit_ratio = %v: the hot set is filled by misses and then only hit", hit)
	}
	if left, _ := filepath.Glob(".benchmark-tmp-*"); len(left) > 0 {
		t.Errorf("traced run left %v behind", left)
	}
}

// TestCorruptedPinFailsOps is the negative test of golden.json: with
// one pin changed, every op that runs the component counts as failed.
func TestCorruptedPinFailsOps(t *testing.T) {
	if runtime.NumCPU() < 2 {
		t.Skip("the workloads pin GOMAXPROCS=2")
	}
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	const key = "fig-micro/hy_bcast"
	if _, ok := g.Pins[key]; !ok {
		t.Fatalf("golden.json has no pin %s", key)
	}
	g.Pins[key]++
	w, _ := findWorkload("fig-micro")

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	m, err := measure(w, 1, 3/w.opsPerSecond, 1, nil, g)
	if err != nil {
		t.Fatal(err)
	}
	r := newResult(w, 1, 3/w.opsPerSecond, m)
	if r.Correct || r.Failed != 3 || r.FailRatio != 1 {
		t.Errorf("corrupted pin: correct=%v failed=%d fail_ratio=%v, want every op failed", r.Correct, r.Failed, r.FailRatio)
	}
	g.Pins[key]--
	if m, err = measure(w, 1, 3/w.opsPerSecond, 1, nil, g); err != nil || m.failed != 0 {
		t.Errorf("restored pin: %d ops failed, %v", m.failed, err)
	}
}
