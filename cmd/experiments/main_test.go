package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/report.golden from the current output (say why in the PR)")

// TestReportGolden pins the coarse report, Figs. 7-12, byte for byte:
// every number in it is virtual time, so it is stable across hosts and
// reruns. cmd/summa's and cmd/bpmf's default points are read back from
// this file by their own tests.
func TestReportGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("the full report takes over a minute under the race detector; the plain test job runs it")
	}
	var stdout bytes.Buffer
	if err := run(nil, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	const path = "testdata/report.golden"
	if *update {
		if err := os.WriteFile(path, stdout.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := stdout.Bytes()
	if bytes.Equal(got, want) {
		return
	}
	gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("line %d differs from %s:\n got  %q\n want %q", i+1, path, gl[i], wl[i])
		}
	}
	t.Fatalf("output has %d lines, %s has %d", len(gl), path, len(wl))
}

func TestBadArgumentsAreErrors(t *testing.T) {
	for _, args := range [][]string{{"-o", "report.txt"}, {"-nope"}} {
		var stdout bytes.Buffer
		if err := run(args, &stdout, io.Discard); err == nil {
			t.Errorf("%v: accepted", args)
		}
		if stdout.Len() != 0 {
			t.Errorf("%v: printed %q before failing", args, stdout.String())
		}
	}
}
