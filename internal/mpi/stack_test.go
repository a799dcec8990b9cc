package mpi

import (
	"flag"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"sync"
	"testing"

	"repro/internal/sim"
)

var stackClassChild = flag.Bool("stackclass.child", false, "measure TestRankStackClass in this process (the test starts a child with it)")

// startingStackSize reads the runtime's adaptive starting stack size.
func startingStackSize(t *testing.T) uint64 {
	s := []metrics.Sample{{Name: "/gc/stack/starting-size:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		t.Skip("runtime does not report /gc/stack/starting-size:bytes")
	}
	return s[0].Value.Uint64()
}

// TestRankStackClass holds growRankStack to its purpose: a
// goroutine-engine rank that starts on a 2 KiB stack ends its entry on
// a 4 KiB one. Ranks park right after entry in a shallow body, and the
// stack memory in use grows by about 4 KiB per parked rank (up to 6 KiB
// when each rank's 2 KiB start is fresh too). An array the compiler
// folded away leaves every rank on 2 KiB (at most 2 KiB each); one that
// overshoots puts every rank in the 8 KiB class. The measurement runs
// in a child process: free stack slots that earlier tests leave in
// this one would take the new stacks without growing the total.
func TestRankStackClass(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector nearly doubles the stack guard, so the entry frame lands in the 8 KiB class")
	}
	if !*stackClassChild {
		out, err := exec.Command(os.Args[0], "-test.run=^TestRankStackClass$", "-test.v", "-stackclass.child").CombinedOutput()
		if err != nil {
			t.Fatalf("child: %v\n%s", err, out)
		}
		if strings.Contains(string(out), "--- SKIP") {
			t.Skipf("child skipped:\n%s", out)
		}
		t.Logf("child:\n%s", out)
		return
	}

	// Each GC resets the starting size to the average stack it scans
	// plus the stack guard, so hold the GC off and run one while a crowd
	// of shallow goroutines is parked: that settles it at 2 KiB, where
	// a GC among few live ranks leaves it in a real run.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	crowd := make(chan struct{})
	var parked sync.WaitGroup
	for range 128 {
		parked.Add(1)
		go func() {
			defer parked.Done()
			<-crowd
		}()
	}
	runtime.GC()
	close(crowd)
	parked.Wait()
	if start := startingStackSize(t); start >= 4096 {
		t.Skipf("/gc/stack/starting-size:bytes reads %d: goroutines already start on 4 KiB or more, so no rank grows at entry", start)
	}

	const ranks = 256
	w, err := NewWorld(sim.Laptop(), sim.MustUniform(1, ranks))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	parked.Add(ranks)
	release := make(chan struct{})
	done := make(chan error, 1)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	go func() {
		done <- w.Run(func(*Proc) error {
			parked.Done()
			<-release
			return nil
		})
	}()
	parked.Wait()
	runtime.ReadMemStats(&after)
	close(release)
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	perRank := float64(int64(after.StackInuse)-int64(before.StackInuse)) / ranks
	t.Logf("stack in use: %d -> %d B, %.0f B per parked rank", before.StackInuse, after.StackInuse, perRank)
	switch {
	case perRank < 2<<10+512:
		t.Errorf("%.0f B of stack per parked rank: ranks stayed on their 2 KiB start, so the entry frame was elided or is too small", perRank)
	case perRank > 6<<10+512:
		t.Errorf("%.0f B of stack per parked rank: the entry frame overshot into the 8 KiB class", perRank)
	}
}
