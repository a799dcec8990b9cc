package main

import (
	"math"
	"testing"
)

func TestTailIndexKeepsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n       int
		wantIdx int
	}{
		{1000, 899}, // p90 proper: 100 beyond
		{105, 94},   // p90 proper: exactly 10 beyond
		{100, 89},   // p90 proper: exactly 10 beyond
		{50, 39},    // p90 would leave 5 beyond: fall back to p80
		{15, 7},     // too few for any tail: the median
		{1, 0},
	} {
		idx, pct := tailIndex(tc.n, 0.9)
		if idx != tc.wantIdx {
			t.Errorf("tailIndex(%d): index %d, want %d", tc.n, idx, tc.wantIdx)
		}
		if beyond := tc.n - 1 - idx; tc.n >= 2*minBeyond+2 && beyond < minBeyond {
			t.Errorf("tailIndex(%d): only %d samples beyond", tc.n, beyond)
		}
		if want := float64(idx+1) / float64(tc.n); pct != want {
			t.Errorf("tailIndex(%d): percentile %v, want %v", tc.n, pct, want)
		}
	}
}

// The driver sizes spreads with Python's statistics.quantiles(v, n=4);
// the expected values below are what it returns.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		vals           []float64
		q1, median, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, q3 := quartiles(tc.vals)
		if q1 != tc.q1 || q3 != tc.q3 || median(tc.vals) != tc.median {
			t.Errorf("%v: got %v %v %v, want %v %v %v", tc.vals, q1, median(tc.vals), q3, tc.q1, tc.median, tc.q3)
		}
	}
	if got := spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); got != 1 {
		t.Errorf("spread: got %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestCompareSetsVerdicts(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100} // IQR 2, spread 2%
	shift := func(by float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v + by
		}
		return out
	}
	noisy := []float64{80, 120, 90, 110, 100, 85, 115, 95, 105, 100} // IQR 22.5, spread 22.5%
	for _, tc := range []struct {
		name   string
		a, b   []float64
		higher bool
		bound  float64
		want   verdict
	}{
		{"lower is better, every pair wins, gap beyond IQR", parent, shift(-5), false, 0.10, improved},
		{"same numbers", parent, parent, false, 0.10, unchanged},
		{"gap inside the bound and the IQR", parent, shift(1), false, 0.10, unchanged},
		{"median worse than the bound", parent, shift(15), false, 0.10, regressed},
		{"higher is better, lower median is the regression", parent, shift(-15), true, 0.10, regressed},
		{"higher is better, gain", parent, shift(5), true, 0.10, improved},
		{"parent spread wider than the bound", noisy, noisy, false, 0.10, unresolved},
		{"wide spread, but every run of the change beats every parent run", noisy, shift(-30), false, 0.10, improved},
	} {
		if got := compareSets(tc.a, tc.b, tc.higher, tc.bound); got.Verdict != tc.want {
			t.Errorf("%s: %s, want %s (%+v)", tc.name, got.Verdict, tc.want, got)
		}
	}
	// Winning 8 of 10 pairs is not a gain, however large the median gap.
	b := shift(-5)
	b[0], b[1] = 200, 200
	if got := compareSets(parent, b, false, 0.10); got.Verdict == improved || got.Wins != 8 {
		t.Errorf("8/10 wins: %+v", got)
	}
	// Every run better than every parent run resolves a wide spread
	// even when the median gap (21) is inside the parent's IQR (22.5),
	// so it is no gain either.
	better := []float64{79, 79, 79, 79, 79, 79, 79, 79, 79, 79}
	if got := compareSets(noisy, better, false, 0.10); got.Verdict != unchanged {
		t.Errorf("all-better change: %+v, want unchanged", got)
	}
}

func TestSelfTimeNestedAndReplayed(t *testing.T) {
	spans := []span{
		{Name: "harness.op", Start: 0, End: 100, Parent: -1, Op: 0},
		{Name: "server.handler", Start: 10, End: 90, Parent: 0, Op: 0},
		// Replayed next to the handler, after the op: still its children.
		{Name: "spec.parse", Start: 100, End: 130, Parent: 1, Op: 0, Replayed: true},
		{Name: "server.encode", Start: 130, End: 150, Parent: 1, Op: 0, Replayed: true},
		// A second op, nested two deep.
		{Name: "harness.op", Start: 200, End: 300, Parent: -1, Op: 1},
		{Name: "mpi.run", Start: 210, End: 290, Parent: 4, Op: 1},
		{Name: "coll.bcast", Start: 220, End: 250, Parent: 5, Op: 1},
		{Name: "coll.bcast", Start: 250, End: 280, Parent: 5, Op: 1},
	}
	self := selfByName(spans)
	want := map[int]map[string]float64{
		0: {"harness.op": 20, "server.handler": 30, "spec.parse": 30, "server.encode": 20},
		1: {"harness.op": 20, "mpi.run": 20, "coll.bcast": 60},
	}
	for op, names := range want {
		sum := 0.0
		for name, ns := range names {
			if got := self[op][name]; got != ns {
				t.Errorf("op %d %s: self %v, want %v", op, name, got, ns)
			}
			sum += self[op][name]
		}
		if sum != 100 {
			t.Errorf("op %d: self times sum to %v, want the root's 100", op, sum)
		}
	}
	if got := perOp(spans, "coll.bcast", true); len(got) != 1 || got[0] != 30 {
		t.Errorf("perOp mean: %v", got)
	}
	if layerOf("server.handler") != "server" {
		t.Errorf("layerOf: %q", layerOf("server.handler"))
	}
}

func TestSummarize(t *testing.T) {
	s := summarize([]float64{4, 1, 3, 2, 5})
	if s.N != 5 || s.Median != 3 || s.Q1 != 1.5 || s.Q3 != 4.5 {
		t.Errorf("summarize: %+v", s)
	}
	if q1, q3 := quartiles(nil); !math.IsNaN(q1) || !math.IsNaN(q3) {
		t.Errorf("quartiles(nil) = %v, %v", q1, q3)
	}
}

func TestFitKeepsMeasuredDurations(t *testing.T) {
	tr := newTracer(8)
	tr.spans = append(tr.spans,
		span{Name: "server.handler", Start: 0, End: 100, Parent: -1},
		span{Name: "spec.exec", Start: 100, End: 300, Parent: 0, Replayed: true},
		span{Name: "mpi.run", Start: 300, End: 400, Parent: 1, Replayed: true},
	)
	tr.fit(1, 0.5) // the replay took 200, the handler had 100 to give
	self := selfByName(tr.spans)[0]
	if self["server.handler"] != 0 || self["spec.exec"] != 50 || self["mpi.run"] != 50 {
		t.Errorf("fitted self times: %v", self)
	}
	if got := perOp(tr.spans, "spec.exec", false); got[0] != 200 {
		t.Errorf("perOp must report the measured 200 ns, got %v", got)
	}
}
