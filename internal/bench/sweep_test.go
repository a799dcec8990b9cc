package bench

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/coll"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite testdata/sweeps.golden.json")

const sweepGolden = "testdata/sweeps.golden.json"

// decodeTree parses JSON keeping numbers as written, so picosecond
// counts compare exactly.
func decodeTree(t *testing.T, data []byte) map[string]any {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	var tree map[string]any
	if err := dec.Decode(&tree); err != nil {
		t.Fatal(err)
	}
	return tree
}

// diffTree returns one line per place got departs from want, each
// naming the section, point and field (e.g.
// "noise_sweep.points[3].virtual_ps"). A list of the wrong length is
// reported once, not entry by entry.
func diffTree(path string, got, want any) []string {
	switch w := want.(type) {
	case map[string]any:
		g, ok := got.(map[string]any)
		if !ok {
			return []string{fmt.Sprintf("%s: got %v, want an object", path, got)}
		}
		var out []string
		for k, wv := range w {
			gv, ok := g[k]
			if !ok {
				out = append(out, fmt.Sprintf("%s.%s: missing", path, k))
				continue
			}
			out = append(out, diffTree(path+"."+k, gv, wv)...)
		}
		for k := range g {
			if _, ok := w[k]; !ok {
				out = append(out, fmt.Sprintf("%s.%s: not in the golden", path, k))
			}
		}
		return out
	case []any:
		g, ok := got.([]any)
		if !ok || len(g) != len(w) {
			return []string{fmt.Sprintf("%s: got %d entries, golden has %d", path, len(g), len(w))}
		}
		var out []string
		for i := range w {
			out = append(out, diffTree(fmt.Sprintf("%s[%d]", path, i), g[i], w[i])...)
		}
		return out
	}
	if got != want {
		return []string{fmt.Sprintf("%s: got %v, golden %v", path, got, want)}
	}
	return nil
}

// TestSweepGolden is the gate on every deterministic number the sweeps
// report: the five dimensions of
//
//	go run ./cmd/perf -sweep coll,topo,stencil,noise,tuned -scalemax 4096
//
// must reproduce testdata/sweeps.golden.json exactly (regenerate with
// -update, and say why in the PR). The scale dimension is pinned by
// TestScaleSweepSmoke instead.
func TestSweepGolden(t *testing.T) {
	dims, err := SelectDimensions("coll,topo,stencil,noise,tuned")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := RunSweeps(dims, SweepConfig{
		Model: sim.HazelHenCray(), Tuning: coll.Tuning{Policy: coll.PolicyCost},
		MaxRanks: 4096, Seed: 42,
	}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	got := decodeTree(t, data)
	if *update {
		out, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(sweepGolden, append(out, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(sweepGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	for _, d := range diffTree("", got, decodeTree(t, want)) {
		t.Error(strings.TrimPrefix(d, "."))
	}
}

// TestSweepGoldenNamesDrift corrupts a copy of the golden three ways
// and checks the comparison reports each by name.
func TestSweepGoldenNamesDrift(t *testing.T) {
	data, err := os.ReadFile(sweepGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := decodeTree(t, data)
	points := func(tree map[string]any, section string) []any {
		return tree[section].(map[string]any)["points"].([]any)
	}
	for _, tc := range []struct {
		name    string
		corrupt func(tree map[string]any)
		report  string
	}{
		{"one pinned virtual time moved", func(tree map[string]any) {
			points(tree, "noise_sweep")[3].(map[string]any)["virtual_ps"] = json.Number("1")
		}, ".noise_sweep.points[3].virtual_ps: got 1, golden "},
		{"one point dropped", func(tree map[string]any) {
			sec := tree["stencil_sweep"].(map[string]any)
			sec["points"] = points(tree, "stencil_sweep")[1:]
		}, ".stencil_sweep.points: got 2 entries, golden has 3"},
		{"one section emptied", func(tree map[string]any) {
			tree["tuned_sweep"] = map[string]any{}
		}, ".tuned_sweep.points: missing"},
	} {
		got := decodeTree(t, data)
		tc.corrupt(got)
		diffs := diffTree("", got, want)
		found := false
		for _, d := range diffs {
			found = found || strings.HasPrefix(d, tc.report)
		}
		if !found {
			t.Errorf("%s: no report starting %q in %v", tc.name, tc.report, diffs)
		}
	}
}
