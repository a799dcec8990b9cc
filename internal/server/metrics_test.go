package server

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/spec"
	"repro/internal/tune"
)

// TestMetricsRenderGolden pins the /metrics exposition byte for byte:
// metric names, label order, sort order and number formatting. The
// counts of at least 10^7 catch a counter rendered as a float with %g,
// which switches to exponent form there. testdata/metrics.golden is a
// pin, not a snapshot: a renamed or reordered line is a regression, so
// the file is edited by hand only when a metric is meant to change.
func TestMetricsRenderGolden(t *testing.T) {
	m := newMetrics()
	for _, r := range []struct {
		endpoint string
		code     int
		d        time.Duration
	}{
		{"/v1/run", 200, 40 * time.Microsecond},
		{"/v1/run", 200, 3 * time.Millisecond},
		{"/v1/run", 504, 61 * time.Second},
		{"/v1/price", 200, 250 * time.Microsecond},
		{"/v1/canon", 429, 900 * time.Microsecond},
		{"/v1/run", 400, 120 * time.Microsecond},
		{"/healthz", 200, 10 * time.Microsecond},
		{"/metrics", 200, 2 * time.Second},
	} {
		m.request(r.endpoint, r.code, r.d)
	}
	m.tenant("acme", true)
	m.tenant("acme", true)
	m.tenant("acme", false)
	m.tenant("zeta|corp", false)
	m.tenant("zeta|corp", true)
	m.cacheHits.Add(20000001)
	m.cacheMiss.Add(10000003)
	m.coalesced.Add(10000019)
	m.pointBusy.Add(3)
	m.sweepBusy.Add(1)

	ps := spec.PoolStats{
		Hits: 12345678, Misses: 10000001, Evicted: 10000002, Reaped: 10000004,
		Discarded: 10000008, IdleWorlds: 10000016, IdleRanks: 98765432, Leased: 10000032,
	}
	ts := tune.Stats{
		Entries: 10000000, Generation: 98765431, Hits: 23456789, Misses: 10000005, Measured: 10000007,
	}
	var b strings.Builder
	m.render(&b, 4096, 8, 2, ps, ts)

	want, err := os.ReadFile(filepath.Join("testdata", "metrics.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := b.String(); got != string(want) {
		t.Errorf("/metrics drifted from testdata/metrics.golden:\n got:\n%s\nwant:\n%s", got, want)
	}
}
