package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestSweepRejectsPointFlags: without -cores the command runs the whole
// Fig. 12 sweep on the paper's configuration; -machine, -real and -iters
// used to be ignored there (`bpmf -machine bogus` exited 0).
func TestSweepRejectsPointFlags(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-machine", "bogus"}, "-machine"},
		{[]string{"-real"}, "-real"},
		{[]string{"-iters", "3"}, "-iters"},
	} {
		var stdout bytes.Buffer
		err := run(tc.args, &stdout, io.Discard)
		if err == nil || !strings.Contains(err.Error(), tc.flag+" ") {
			t.Errorf("%v: err = %v, want an error naming %s", tc.args, err, tc.flag)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q before failing", tc.args, stdout.String())
		}
	}
	if err := run([]string{"-nope"}, io.Discard, io.Discard); err == nil {
		t.Error("-nope: accepted")
	}
	err := run([]string{"-cores", "16", "-machine", "abacus"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `unknown machine "abacus" (profiles: hazelhen-cray, laptop, vulcan-openmpi)`) {
		t.Errorf("-machine abacus: err = %v, want the profile list", err)
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
