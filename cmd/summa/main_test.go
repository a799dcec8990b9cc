package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestBlockRunsOnePanel: -block B runs exactly the B panel, for any
// positive B — not the whole sweep filtered by title, which printed
// nothing (and exited 0) for a B outside the paper's four.
func TestBlockRunsOnePanel(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-block", "7"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	out := stdout.String()
	if got := strings.Count(out, "== Figure 11 "); got != 1 || !strings.Contains(out, "== Figure 11 (7x7 blocks)") {
		t.Errorf("-block 7 printed %d panels, want the one 7x7 panel:\n%s", got, out)
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr: %q", stderr.String())
	}
}

func TestBadArgumentsAreErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-block", "-8"},
		{"-cores", "5"},
		{"-nope"},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
	err := run([]string{"-cores", "4", "-machine", "abacus"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `unknown machine "abacus" (profiles: hazelhen-cray, laptop, vulcan-openmpi)`) {
		t.Errorf("-machine abacus: err = %v, want the profile list", err)
	}
}

// TestSweepRejectsSinglePointFlags: the sweep reads neither -verify nor
// -machine, and says so by name instead of printing another
// configuration's numbers.
func TestSweepRejectsSinglePointFlags(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-verify"}, "-verify"},
		{[]string{"-block", "8", "-verify=false"}, "-verify"},
		{[]string{"-block", "8", "-machine", "laptop"}, "-machine"},
	} {
		var stdout bytes.Buffer
		err := run(c.args, &stdout, io.Discard)
		if err == nil || !strings.Contains(err.Error(), c.want+" is not read") {
			t.Errorf("%v: err = %v, want one naming %s", c.args, err, c.want)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q before refusing", c.args, stdout.String())
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
