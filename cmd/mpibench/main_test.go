package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestUnreadFlagsAreErrors: a flag the selected mode does not read is an
// error naming it. Before, figure mode printed the barrier-flavor figure
// under `-fig 7 -sync p2p` (or `-sync bogus`) and exited 0, and
// free-form mode ignored -fine.
func TestUnreadFlagsAreErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-fig", "7", "-sync", "bogus"}, "-sync"},
		{[]string{"-fig", "7", "-sync", "p2p"}, "-sync"},
		{[]string{"-fig", "7", "-trace"}, "-trace"},
		{[]string{"-fig", "8", "-nodes", "2"}, "-nodes"},
		{[]string{"-fig", "9", "-ppn", "2"}, "-ppn"},
		{[]string{"-fig", "10", "-elems", "8"}, "-elems"},
		{[]string{"-fig", "all", "-machine", "laptop"}, "-machine"},
		{[]string{"-nodes", "2", "-ppn", "2", "-fine"}, "-fine"},
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
}

func TestBadArgumentsAreErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-fig", "11"},
		{"-sync", "bogus"},
		{"-machine", "abacus"},
		{"-nope"},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
	err := run([]string{"-nodes", "2", "-ppn", "2", "-machine", "abacus"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `unknown machine "abacus" (profiles: hazelhen-cray, laptop, vulcan-openmpi)`) {
		t.Errorf("free-form -machine abacus: err = %v, want the profile list", err)
	}
}

// TestFreeFormTraced pins the free-form output under a pairwise sync
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
