package server_test

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/spec"
)

// measuredBody is the measured-policy workload the daemon tests share:
// the congested allreduce ladder where the LogGP prior and the
// measured winners can disagree.
const measuredBody = `{"machine":"laptop","topology":{"nodes":4,"ppn":4},
	"collective":"allreduce","sizes":[1024,4096],"iters":2,
	"tuning":{"policy":"measured"},
	"noise":{"seed":1,"congestion":{"net":16}}}`

func newTunedServer(path string) *server.Server {
	return server.New(server.Config{
		Workers:       4,
		SweepWorkers:  1,
		Timeout:       30 * time.Second,
		TuneStorePath: path,
		Logger:        quietLogger(),
	})
}

// TestTuneStoreSharedAcrossDaemons is the daemon-level half of the PR
// 10 determinism satellite: one daemon warms and persists the tuning
// store on Close, then two fresh daemons pointed at the same store
// file must serve bit-identical measured-policy results over HTTP.
func TestTuneStoreSharedAcrossDaemons(t *testing.T) {
	path := filepath.Join(t.TempDir(), "store.jsonl")

	warm := newTunedServer(path)
	rec := do(t, warm, "POST", "/v1/run", measuredBody)
	if rec.Code != 200 || rec.Header().Get("X-Cache") != "miss" {
		t.Fatalf("warm-up run: code %d, X-Cache %q: %s", rec.Code, rec.Header().Get("X-Cache"), rec.Body)
	}
	warm.DrainTuner()
	if st := warm.TuneStats(); st.Measured == 0 {
		t.Fatal("warm daemon measured nothing")
	}
	// The result cache key carries the store generation, and the bytes
	// of a measured-policy body never alias a cached answer, so the
	// identical body sent again must produce a fresh simulation on the
	// now-warm store, not replay the cold run's cost fallback.
	rec = do(t, warm, "POST", "/v1/run", measuredBody)
	if got := rec.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("post-measurement rerun: X-Cache %q, want miss (stale-generation replay)", got)
	}
	warm.Close() // persists the store

	var results [2]spec.Result
	for d := range results {
		srv := newTunedServer(path)
		rec := do(t, srv, "POST", "/v1/run", measuredBody)
		if rec.Code != 200 {
			t.Fatalf("daemon %d: code %d: %s", d, rec.Code, rec.Body)
		}
		if err := jsonUnmarshalStrict(rec.Body.Bytes(), &results[d]); err != nil {
			t.Fatalf("daemon %d: %v", d, err)
		}
		if st := srv.TuneStats(); st.Hits == 0 {
			t.Errorf("daemon %d never hit the shared store", d)
		}
		srv.Close()
	}
	if len(results[0].Points) == 0 {
		t.Fatal("no points returned")
	}
	if err := spec.Agree("daemon-B", &results[1], &results[0]); err != nil {
		t.Errorf("shared store must pin picks: %v", err)
	}
}

// TestMetricsTuneGauges: the tuning store's counters surface on
// /metrics after a measured-policy run.
func TestMetricsTuneGauges(t *testing.T) {
	srv := newTestServer()
	defer srv.Close()
	if rec := do(t, srv, "POST", "/v1/run", measuredBody); rec.Code != 200 {
		t.Fatalf("run: code %d: %s", rec.Code, rec.Body)
	}
	srv.DrainTuner()

	body := do(t, srv, "GET", "/metrics", "").Body.String()
	for _, want := range []string{
		"repro_tune_store_entries",
		"repro_tune_store_generation",
		"repro_tune_hits_total",
		"repro_tune_misses_total",
		"repro_tune_hit_ratio",
		"repro_tune_measurements_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
	if !strings.Contains(body, "repro_tune_measurements_total 2") {
		t.Errorf("want 2 measurements (one per ladder size) on /metrics, got:\n%s",
			grepLines(body, "repro_tune_"))
	}
}

// grepLines returns the lines of s containing substr, for focused
// failure messages.
func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
