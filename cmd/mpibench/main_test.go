package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestBadArgumentsAreErrors: a bad flag value is one error naming the
// flag, printed before anything runs. A negative -iters used to run
// the default five iterations and exit 0, and a negative -elems to fail
// once per rank with "negative block size".
func TestBadArgumentsAreErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-sync", "bogus"}, `unknown sync flavor "bogus"`},
		{[]string{"-machine", "abacus"}, `unknown machine "abacus" (profiles: hazelhen-cray, laptop, vulcan-openmpi)`},
		{[]string{"-nope"}, "-nope"},
		{[]string{"-fig", "7"}, "-fig"},
		{[]string{"-iters", "-3"}, "-iters -3"},
		{[]string{"-elems", "-1"}, "-elems -1"},
		{[]string{"-nodes", "-1"}, "-nodes -1"},
		{[]string{"-ppn", "0"}, "-ppn 0"},
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

// TestFreeFormTraced pins the point's output under a pairwise sync
// flavor with the event trace on (identical to the parent commit's).
func TestFreeFormTraced(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-nodes", "2", "-ppn", "2", "-elems", "8", "-sync", "p2p", "-trace"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	const want = `machine=hazelhen-cray nodes=2 ppn=2 elems=8 sync=p2p
Hy_Allgather:       3.92 us
Allgather:          4.55 us
ratio:              1.16

event trace of one Hy_Allgather:
trace: 8 events over 3.82us
  recv              6 events          256 bytes
  send              2 events          256 bytes
`
	if stdout.String() != want {
		t.Errorf("output:\n%s\nwant:\n%s", stdout.String(), want)
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr: %q", stderr.String())
	}
}

// TestZeroHybridMakespanHasNoRatio: one rank moving zero elements
// finishes its hybrid allgather at 0 us, and the ratio is "n/a", not
// the +Inf of dividing by it.
func TestZeroHybridMakespanHasNoRatio(t *testing.T) {
	var stdout bytes.Buffer
	if err := run([]string{"-nodes", "1", "-ppn", "1", "-elems", "0"}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	const want = `machine=hazelhen-cray nodes=1 ppn=1 elems=0 sync=barrier
Hy_Allgather:       0.00 us
Allgather:          0.08 us
ratio:               n/a
`
	if stdout.String() != want {
		t.Errorf("output:\n%s\nwant:\n%s", stdout.String(), want)
	}
}
