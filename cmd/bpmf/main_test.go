package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// TestDefaultPointIsAReportRow: bpmf with no flags prints the 240-core
// row of cmd/experiments' pinned Fig. 12 report.
func TestDefaultPointIsAReportRow(t *testing.T) {
	var stdout bytes.Buffer
	if err := run(nil, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	row := reportRow(t, "Figure 12", "240") // cores, Ori_ms, Hy_ms, ratio
	want := fmt.Sprintf("Ori_BPMF  cores=240 iters=20: TotalTime %10s ms\nHy_BPMF   cores=240 iters=20: TotalTime %10s ms\n", row[1], row[2])
	if stdout.String() != want {
		t.Errorf("output:\n%s\nwant:\n%s", stdout.String(), want)
	}
}

// reportRow returns the fields of the first row starting with first
// after the report title containing table.
func reportRow(t *testing.T, table, first string) []string {
	t.Helper()
	b, err := os.ReadFile("../experiments/testdata/report.golden")
	if err != nil {
		t.Fatal(err)
	}
	_, after, _ := strings.Cut(string(b), table)
	for _, line := range strings.Split(after, "\n") {
		if f := strings.Fields(line); len(f) > 0 && f[0] == first {
			return f
		}
	}
	t.Fatalf("report has no row %q under %q", first, table)
	return nil
}

// TestBadArgumentsAreErrors: a bad flag value is one error naming the
// flag, printed before anything runs. A negative -iters used to run
// the default iteration count and exit 0.
func TestBadArgumentsAreErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-cores", "0"}, "-cores 0"},
		{[]string{"-cores", "-24"}, "-cores -24"},
		{[]string{"-cores", "16", "-iters", "-1"}, "-iters -1"},
		{[]string{"-nope"}, "-nope"},
		{[]string{"-cores", "16", "-machine", "abacus"}, `unknown machine "abacus" (profiles: hazelhen-cray, laptop, vulcan-openmpi)`},
	} {
		var stdout bytes.Buffer
		err := run(tc.args, &stdout, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one containing %q", tc.args, err, tc.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q before failing", tc.args, stdout.String())
		}
	}
}

// TestRealPoint pins one real-data point: Ori and Hy sample the same
// chain, so they print the same RMSE trajectory. The TotalTime columns
// are virtual and have never moved; the RMSE pair was 0.9255 -> 0.8547
// on math/rand's per-row sources and moved once, with the row-keyed
// PCG stream (DESIGN.md, "The sampler workspace").
func TestRealPoint(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-cores", "16", "-real", "-iters", "2"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	const want = `Ori_BPMF  cores=16 iters=2: TotalTime       56.5 ms  RMSE 0.8900 -> 0.8251
Hy_BPMF   cores=16 iters=2: TotalTime       56.3 ms  RMSE 0.8900 -> 0.8251
`
	if stdout.String() != want {
		t.Errorf("output:\n%s\nwant:\n%s", stdout.String(), want)
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr: %q", stderr.String())
	}
}
