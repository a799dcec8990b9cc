package spec_test

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/spec"
	"repro/internal/tune"
)

// tunedQueryJSON is the measured-policy workload the determinism tests
// share: a congested allreduce ladder, where the LogGP prior and the
// measured winners can disagree.
func tunedQueryJSON(engine string) string {
	eng := ""
	if engine != "" {
		eng = `,"engine":"` + engine + `"`
	}
	return `{"machine":"laptop","topology":{"nodes":4,"ppn":4},` +
		`"collective":"allreduce","sizes":[1024,4096,16384],"iters":2` + eng + `,` +
		`"tuning":{"policy":"measured"},` +
		`"noise":{"seed":1,"congestion":{"net":16}}}`
}

func runTuned(t *testing.T, e *spec.Exec, raw string) *spec.Result {
	t.Helper()
	q, err := spec.Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	r, err := e.RunContext(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestMeasuredColdFallsBackToCost: with an empty store every selection
// misses, so a measured-policy run must return exactly the cost
// policy's virtual times (the never-block contract), while the tuner
// measures the missed points in the background.
func TestMeasuredColdFallsBackToCost(t *testing.T) {
	costRaw := `{"machine":"laptop","topology":{"nodes":4,"ppn":4},` +
		`"collective":"allreduce","sizes":[1024,4096,16384],"iters":2,` +
		`"tuning":{"policy":"cost"},` +
		`"noise":{"seed":1,"congestion":{"net":16}}}`
	cost := runTuned(t, &spec.Exec{}, costRaw)

	store := tune.NewStore()
	tuner := spec.NewTuner(store)
	defer tuner.Close()
	cold := runTuned(t, &spec.Exec{Tuner: tuner}, tunedQueryJSON(""))
	if err := spec.Agree("cold-measured", cold, cost); err != nil {
		t.Errorf("pending measurements must serve the cost choice: %v", err)
	}
	tuner.Drain()
	st := store.Stats()
	if st.Measured != 3 {
		t.Fatalf("measured %d points, want 3 (one per world-communicator ladder size)", st.Measured)
	}
	// A tuner-less measured run is also exactly the cost run.
	plain := runTuned(t, &spec.Exec{}, tunedQueryJSON(""))
	if err := spec.Agree("tuner-less-measured", plain, cost); err != nil {
		t.Error(err)
	}
}

// TestMeasuredWarmGoldenDeterminism is the PR 10 golden: once the
// store is warm (and persisted + reloaded, so the on-disk round trip
// is in the loop), every execution path — goroutine/event engine ×
// {perpoint, warm, pooled, pooled-parallel} — and a full rerun must
// produce bit-identical virtual times.
func TestMeasuredWarmGoldenDeterminism(t *testing.T) {
	// Warm a store through a cold run.
	store := tune.NewStore()
	tuner := spec.NewTuner(store)
	runTuned(t, &spec.Exec{Tuner: tuner}, tunedQueryJSON(""))
	tuner.Drain()
	tuner.Close()
	if store.Len() == 0 {
		t.Fatal("warm-up measured nothing")
	}

	// Persist and reload: the warm runs serve from the reloaded store.
	path := filepath.Join(t.TempDir(), "store.jsonl")
	if err := store.Save(path); err != nil {
		t.Fatal(err)
	}
	reloaded, err := tune.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if reloaded.Len() != store.Len() {
		t.Fatalf("reloaded %d entries, saved %d", reloaded.Len(), store.Len())
	}
	warmTuner := spec.NewTuner(reloaded)
	defer warmTuner.Close()

	pool := spec.NewWorldPool(spec.PoolConfig{MaxIdle: -1})
	defer pool.Close()
	var paths []spec.Path
	for _, engine := range []string{"goroutine", "event"} {
		for _, e := range []struct {
			name string
			exec *spec.Exec
		}{
			{"perpoint", &spec.Exec{PerPointWorlds: true, Tuner: warmTuner}},
			{"warm", &spec.Exec{Tuner: warmTuner}},
			{"pooled", &spec.Exec{Pool: pool, Tuner: warmTuner}},
			{"pooled-parallel", &spec.Exec{Pool: pool, Parallelism: 4, Tuner: warmTuner}},
		} {
			for _, pass := range []string{"", "/rerun"} {
				paths = append(paths, spec.Path{Name: engine + "/" + e.name + pass, Engine: engine, Exec: e.exec})
			}
		}
	}
	q, err := spec.Parse([]byte(tunedQueryJSON("")))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Referee(context.Background(), q, paths[0], paths[1:]...); err != nil {
		t.Error(err)
	}
	// The warm runs resolved from the store, not the cost fallback.
	if st := reloaded.Stats(); st.Hits == 0 {
		t.Fatal("warm runs never hit the store")
	}
	if reloaded.Generation() != 0 || reloaded.Len() != store.Len() {
		t.Fatalf("warm runs mutated the store (gen %d, len %d)", reloaded.Generation(), reloaded.Len())
	}
}

// TestMeasuredSharedStoreFile: two independent tuners loading one
// store file (two daemons sharing -tune-store) make identical picks
// and produce bit-identical virtual times.
func TestMeasuredSharedStoreFile(t *testing.T) {
	store := tune.NewStore()
	tuner := spec.NewTuner(store)
	runTuned(t, &spec.Exec{Tuner: tuner}, tunedQueryJSON(""))
	tuner.Drain()
	tuner.Close()
	path := filepath.Join(t.TempDir(), "store.jsonl")
	if err := store.Save(path); err != nil {
		t.Fatal(err)
	}

	var results [2]*spec.Result
	for d := range results {
		st, err := tune.Load(path)
		if err != nil {
			t.Fatal(err)
		}
		tr := spec.NewTuner(st)
		results[d] = runTuned(t, &spec.Exec{Tuner: tr}, tunedQueryJSON("event"))
		tr.Close()
	}
	if err := spec.Agree("daemon-B", results[1], results[0]); err != nil {
		t.Error(err)
	}
}

// TestMeasuredHammer is the -race satellite: many goroutines resolving
// selections through ONE shared store while the measurement backfill
// runs concurrently. The store must never tear (the race detector
// referees) and every point must be measured exactly once
// (singleflight on the measurement key), no matter how many runs miss
// it simultaneously.
func TestMeasuredHammer(t *testing.T) {
	store := tune.NewStore()
	tuner := spec.NewTuner(store)
	defer tuner.Close()
	e := &spec.Exec{Tuner: tuner}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*2)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			// Alternate engines so both backends race through the
			// same store concurrently.
			engine := ""
			if g%2 == 1 {
				engine = "event"
			}
			for rep := 0; rep < 3; rep++ {
				q, err := spec.Parse([]byte(tunedQueryJSON(engine)))
				if err != nil {
					errs <- err
					return
				}
				if _, err := e.RunContext(context.Background(), q); err != nil {
					errs <- fmt.Errorf("goroutine %d rep %d: %w", g, rep, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	tuner.Drain()
	st := store.Stats()
	// 3 ladder sizes -> 3 world-communicator points, measured exactly
	// once each no matter how many of the 24 runs missed them.
	if st.Measured != 3 {
		t.Fatalf("measured %d times for 3 distinct points (singleflight broken)", st.Measured)
	}
	if st.Entries != 3 {
		t.Fatalf("store holds %d entries, want 3", st.Entries)
	}
	if tuner.Errors() != 0 {
		t.Fatalf("%d measurement errors", tuner.Errors())
	}

	// And hammer the warm store: concurrent warm runs must all agree.
	results := make([]*spec.Result, goroutines)
	wg = sync.WaitGroup{}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			q, _ := spec.Parse([]byte(tunedQueryJSON("event")))
			r, err := e.RunContext(context.Background(), q)
			if err == nil {
				results[g] = r
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if results[g] == nil || results[0] == nil {
			t.Fatal("warm hammer run failed")
		}
		if err := spec.Agree(fmt.Sprintf("warm-run-%d", g), results[g], results[0]); err != nil {
			t.Error(err)
		}
	}
}
