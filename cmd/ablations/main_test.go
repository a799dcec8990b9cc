package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/default.golden from the current output (say why in the PR)")

// TestDefaultOutputGolden pins the full default output: every number in
// it is virtual time, so it is byte-stable across hosts and reruns. It
// is the figure-scale pin on the generic Split / SharePlan path — the
// multi-leader table builds its hierarchies through them on 192-rank
// worlds, the largest user of setup exchanges in the repo.
func TestDefaultOutputGolden(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run(nil, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if stderr.Len() != 0 {
		t.Errorf("stderr: %q", stderr.String())
	}
	const path = "testdata/default.golden"
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

func TestUnknownMachineAndFlagAreErrors(t *testing.T) {
	err := run([]string{"-machine", "abacus"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `unknown machine "abacus" (profiles: hazelhen-cray, laptop, vulcan-openmpi)`) {
		t.Errorf("-machine abacus: %v", err)
	}
	if err := run([]string{"-nope"}, io.Discard, io.Discard); err == nil {
		t.Error("-nope: accepted")
	}
}
