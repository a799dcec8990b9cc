package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/spec"
)

const specFile = `{"machine":"laptop","topology":{"nodes":2,"ppn":4},
	"collective":"allreduce","sizes":[64,4096],"iters":2,
	"noise":{"seed":7,"jitter":0.2}}`

// TestSpecFileCrossChecksEngines is the regression test for the -spec
// branch skipping the cross-engine check: with -engine both (given or
// defaulted) a query file must run on both backends and say so.
func TestSpecFileCrossChecksEngines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "q.json")
	if err := os.WriteFile(path, []byte(specFile), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-spec", path, "-engine", "both"},
		{"-spec", path},
		{"-collective", "allreduce", "-shape", "2x4", "-sizes", "64,4096", "-machine", "laptop"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		if !strings.Contains(stderr.String(), "engines agree bit-identically") {
			t.Errorf("%v: no cross-engine verdict on stderr: %q", args, stderr.String())
		}
		if !strings.Contains(stdout.String(), `"engine": "goroutine"`) || !strings.Contains(stdout.String(), `"virtual_ps"`) {
			t.Errorf("%v: stdout is not the query's own result: %s", args, stdout.String())
		}
	}
	// A named engine runs alone: no verdict line.
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-spec", path, "-engine", "event"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	if stderr.Len() != 0 || !strings.Contains(stdout.String(), `"engine": "event"`) {
		t.Errorf("-engine event: stderr %q, stdout %s", stderr.String(), stdout.String())
	}
}

// TestQueryModeFailsOnDivergence: when the challenger's timeline
// differs (here: its copy of the query gets another noise seed),
// runQuery returns the referee's error — which main turns into exit
// status 1 — and prints no result.
func TestQueryModeFailsOnDivergence(t *testing.T) {
	q, err := spec.Parse([]byte(specFile))
	if err != nil {
		t.Fatal(err)
	}
	ref, challengers := enginePaths(q, "both")
	challengers[0].Edit = func(q *spec.Query) { q.Noise.Seed++ }
	var stdout bytes.Buffer
	err = runQuery(q, ref, challengers, "", &stdout, io.Discard)
	if !errors.Is(err, spec.ErrDiverged) || !strings.Contains(err.Error(), "path event") {
		t.Errorf("got %v, want a divergence naming the event path", err)
	}
	if stdout.Len() != 0 {
		t.Errorf("a result was printed despite the divergence: %s", stdout.String())
	}
}

// TestRemovedSurfaceIsGone: the wall-clock gate's flags and the service
// dimension are rejected, and a bare invocation does not start a
// wall-clock run.
func TestRemovedSurfaceIsGone(t *testing.T) {
	for _, args := range [][]string{
		{"-check"}, {"-baseline", "x.json"}, {"-maxslow", "2"}, {"-allocslack", "1"}, {"-case", "fig9"},
		{},
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("%v: accepted", args)
		}
	}
	err := run([]string{"-sweep", "service"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `unknown sweep dimension "service"`) {
		t.Errorf("-sweep service: %v", err)
	}
}

// TestUnknownMachineListsProfiles: a mistyped -machine is answered with
// the names that exist (sim.Profile's one error).
func TestUnknownMachineListsProfiles(t *testing.T) {
	err := run([]string{"-sweep", "coll", "-machine", "abacus"}, io.Discard, io.Discard)
	if err == nil || !strings.Contains(err.Error(), `unknown machine "abacus" (profiles: hazelhen-cray, laptop, vulcan-openmpi)`) {
		t.Errorf("-machine abacus: err = %v, want the profile list", err)
	}
}

// TestSweepWritesReport drives one cheap dimension end to end.
func TestSweepWritesReport(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sweeps.json")
	var stdout bytes.Buffer
	if err := run([]string{"-sweep", "coll", "-out", out}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil || !bytes.Contains(data, []byte(`"coll_sweep"`)) || !strings.Contains(stdout.String(), "coll-sweep (hazelhen-cray, policy cost)") {
		t.Errorf("report %.80q (%v), stdout %q", data, err, stdout.String())
	}
}
