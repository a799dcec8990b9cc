package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

// TestDefaultPointIsAReportRow: summa with no flags prints the 64-core
// row of Fig. 11's 64x64 panel in cmd/experiments' pinned report.
func TestDefaultPointIsAReportRow(t *testing.T) {
	var stdout bytes.Buffer
	if err := run(nil, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	row := reportRow(t, "Figure 11 (64x64 blocks)", "64") // cores, Ori_us, Hy_us, ratio
	want := fmt.Sprintf("Ori_SUMMA  cores=64 b=64: %12s us\nHy_SUMMA   cores=64 b=64: %12s us\n", row[1], row[2])
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

func TestBadArgumentsAreErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-block", "-8"}, "-block -8"},
		{[]string{"-block", "0"}, "-block 0"},
		{[]string{"-cores", "0"}, "-cores 0"},
		{[]string{"-cores", "-4"}, "-cores -4"},
		{[]string{"-cores", "5"}, "cores 5 is not a perfect square"},
		{[]string{"-nope"}, "-nope"},
		{[]string{"-cores", "4", "-machine", "abacus"}, `unknown machine "abacus" (profiles: hazelhen-cray, laptop, vulcan-openmpi)`},
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

func TestSinglePointVerifies(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-cores", "4", "-block", "4", "-verify"}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(stdout.String(), "verified=true"); got != 2 {
		t.Errorf("want Ori and Hy both verified, got:\n%s", stdout.String())
	}
}
