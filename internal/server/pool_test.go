package server_test

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
)

// poolQuery returns a point query whose fingerprint varies with size
// but whose world shape does not — the geometry-reuse case the warm
// world pool exists for.
func poolQuery(size int) string {
	return fmt.Sprintf(
		`{"machine":"laptop","topology":{"nodes":2,"ppn":4},"collective":"bcast","sizes":[%d]}`, size)
}

// TestWorldPoolHitsAcrossQueries: distinct-fingerprint queries sharing
// one shape must reuse a resident world, and the reuse must show up on
// /metrics.
func TestWorldPoolHitsAcrossQueries(t *testing.T) {
	srv := newTestServer()
	defer srv.Close()
	const n = 6
	for i := 0; i < n; i++ {
		if rec := do(t, srv, "POST", "/v1/run", poolQuery(64+i*16)); rec.Code != 200 {
			t.Fatalf("query %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	s := srv.PoolStats()
	if s.Misses < 1 || s.Hits < int64(n)-2 {
		t.Errorf("pool did not reuse worlds across queries: %+v", s)
	}
	rec := do(t, srv, "GET", "/metrics", "")
	if rec.Code != 200 {
		t.Fatalf("metrics: %d", rec.Code)
	}
	out := rec.Body.String()
	for _, want := range []string{
		fmt.Sprintf("repro_world_pool_hits_total %d", s.Hits),
		fmt.Sprintf("repro_world_pool_misses_total %d", s.Misses),
		"repro_world_pool_hit_ratio 0.8",
		"repro_world_pool_resident_worlds{state=\"idle\"}",
		"repro_world_pool_resident_worlds{state=\"leased\"} 0",
		"repro_world_pool_resident_ranks",
		"repro_world_pool_retired_total{reason=\"evicted\"} 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
}

// TestWorldPoolDisabled: a negative rank budget turns pooling off.
func TestWorldPoolDisabled(t *testing.T) {
	srv := server.New(server.Config{WorldPoolRanks: -1, Logger: quietLogger()})
	defer srv.Close()
	for i := 0; i < 3; i++ {
		if rec := do(t, srv, "POST", "/v1/run", poolQuery(64+i*16)); rec.Code != 200 {
			t.Fatalf("query %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	if s := srv.PoolStats(); s.Hits != 0 || s.Misses != 0 || s.IdleWorlds != 0 {
		t.Errorf("pool active despite being disabled: %+v", s)
	}
}

// TestServerCloseRetiresPool: graceful shutdown must leave no resident
// worlds (their event-engine goroutines go with them; serverd's
// "stopped" log line reports the count).
func TestServerCloseRetiresPool(t *testing.T) {
	srv := server.New(server.Config{Logger: quietLogger(), WorldPoolIdle: time.Hour})
	for i := 0; i < 4; i++ {
		if rec := do(t, srv, "POST", "/v1/run", poolQuery(64+i*16)); rec.Code != 200 {
			t.Fatalf("query %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	if s := srv.PoolStats(); s.IdleWorlds == 0 {
		t.Fatalf("expected resident worlds before close: %+v", s)
	}
	srv.Close()
	if s := srv.PoolStats(); s.IdleWorlds != 0 || s.IdleRanks != 0 || s.Leased != 0 {
		t.Errorf("resident worlds survived Close: %+v", s)
	}
}
