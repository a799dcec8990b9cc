package server

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/spec"
	"repro/internal/tune"
)

// latencyBuckets are the fixed upper bounds (seconds) of the request
// latency histogram — microseconds for warm cache hits up through the
// request timeout ceiling.
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// metrics is the server's instrumentation: lock-free counters on the
// hot path (a warm cache hit must stay cheap enough for the 10k qps
// target) and a mutex only around the request-count label map, which
// sees one short critical section per request.
type metrics struct {
	cacheHits  atomic.Int64
	cacheMiss  atomic.Int64
	coalesced  atomic.Int64
	pointBusy  atomic.Int64   // point worker slots currently held
	sweepBusy  atomic.Int64   // sweep worker slots currently held
	histCounts []atomic.Int64 // len(latencyBuckets)+1, last is +Inf
	histSumNs  atomic.Int64
	histN      atomic.Int64

	mu       sync.Mutex
	requests map[requestLabels]int64
	tenants  map[tenantLabels]int64
}

// requestLabels are the labels of one repro_requests_total series.
type requestLabels struct {
	endpoint string
	code     int
}

// tenantLabels are the labels of one repro_tenant_requests_total
// series.
type tenantLabels struct {
	name    string
	allowed bool
}

// outcomeLabel is the series' outcome label.
func (l tenantLabels) outcomeLabel() string {
	if l.allowed {
		return "allowed"
	}
	return "limited"
}

func newMetrics() *metrics {
	return &metrics{
		histCounts: make([]atomic.Int64, len(latencyBuckets)+1),
		requests:   make(map[requestLabels]int64),
		tenants:    make(map[tenantLabels]int64),
	}
}

// tenant records one rate-limiter decision for the given tenant.
func (m *metrics) tenant(name string, allowed bool) {
	m.mu.Lock()
	m.tenants[tenantLabels{name, allowed}]++
	m.mu.Unlock()
}

// request records one completed request.
func (m *metrics) request(endpoint string, code int, d time.Duration) {
	m.mu.Lock()
	m.requests[requestLabels{endpoint, code}]++
	m.mu.Unlock()
	s := d.Seconds()
	i := sort.SearchFloat64s(latencyBuckets, s)
	m.histCounts[i].Add(1)
	m.histSumNs.Add(int64(d))
	m.histN.Add(1)
}

// render writes the Prometheus text exposition of every metric.
// cacheLen and the world-pool and tuning-store snapshots are sampled by
// the caller at scrape time.
func (m *metrics) render(w *strings.Builder, cacheLen int, pointCap, sweepCap int, ps spec.PoolStats, ts tune.Stats) {
	family(w, "repro_requests_total", "counter", "Completed HTTP requests by endpoint and status code.")
	m.mu.Lock()
	for _, l := range slices.SortedFunc(maps.Keys(m.requests), func(a, b requestLabels) int {
		return cmp.Or(strings.Compare(a.endpoint, b.endpoint), cmp.Compare(a.code, b.code))
	}) {
		fmt.Fprintf(w, "repro_requests_total{endpoint=%q,code=\"%d\"} %d\n", l.endpoint, l.code, m.requests[l])
	}
	if len(m.tenants) > 0 {
		family(w, "repro_tenant_requests_total", "counter", "Per-tenant rate-limiter decisions on the query endpoints.")
		for _, l := range slices.SortedFunc(maps.Keys(m.tenants), func(a, b tenantLabels) int {
			return cmp.Or(strings.Compare(a.name, b.name), strings.Compare(a.outcomeLabel(), b.outcomeLabel()))
		}) {
			fmt.Fprintf(w, "repro_tenant_requests_total{tenant=%q,outcome=%q} %d\n", l.name, l.outcomeLabel(), m.tenants[l])
		}
	}
	m.mu.Unlock()

	hits, miss := m.cacheHits.Load(), m.cacheMiss.Load()
	single(w, "repro_cache_hits_total", "counter", "Run results served from the LRU cache.", hits)
	single(w, "repro_cache_misses_total", "counter", "Run queries that had to simulate.", miss)
	single(w, "repro_cache_hit_ratio", "gauge", "Fraction of run lookups served from cache.", ratio(hits, miss))
	single(w, "repro_cache_entries", "gauge", "Resident result-cache entries.", cacheLen)
	single(w, "repro_coalesced_total", "counter", "Requests that joined an identical in-flight query.", m.coalesced.Load())

	family(w, "repro_pool_busy", "gauge", "Worker slots currently executing, by class.")
	fmt.Fprintf(w, "repro_pool_busy{class=\"point\"} %d\n", m.pointBusy.Load())
	fmt.Fprintf(w, "repro_pool_busy{class=\"sweep\"} %d\n", m.sweepBusy.Load())
	family(w, "repro_pool_capacity", "gauge", "Worker slots configured, by class.")
	fmt.Fprintf(w, "repro_pool_capacity{class=\"point\"} %d\n", pointCap)
	fmt.Fprintf(w, "repro_pool_capacity{class=\"sweep\"} %d\n", sweepCap)

	single(w, "repro_world_pool_hits_total", "counter", "World checkouts served by a resident warm world.", ps.Hits)
	single(w, "repro_world_pool_misses_total", "counter", "World checkouts that had to build a world.", ps.Misses)
	single(w, "repro_world_pool_hit_ratio", "gauge", "Fraction of world checkouts served warm.", ps.HitRatio())
	family(w, "repro_world_pool_resident_worlds", "gauge", "Resident simulated worlds, by state.")
	fmt.Fprintf(w, "repro_world_pool_resident_worlds{state=\"idle\"} %d\n", ps.IdleWorlds)
	fmt.Fprintf(w, "repro_world_pool_resident_worlds{state=\"leased\"} %d\n", ps.Leased)
	single(w, "repro_world_pool_resident_ranks", "gauge", "Rank total across idle resident worlds.", ps.IdleRanks)
	family(w, "repro_world_pool_retired_total", "counter", "Pooled worlds closed, by reason.")
	fmt.Fprintf(w, "repro_world_pool_retired_total{reason=\"evicted\"} %d\n", ps.Evicted)
	fmt.Fprintf(w, "repro_world_pool_retired_total{reason=\"reaped\"} %d\n", ps.Reaped)
	fmt.Fprintf(w, "repro_world_pool_retired_total{reason=\"discarded\"} %d\n", ps.Discarded)

	single(w, "repro_tune_store_entries", "gauge", "Cached measured-policy selection points in the tuning store.", ts.Entries)
	single(w, "repro_tune_store_generation", "gauge", "Tuning-store insert counter (grows with every measured winner).", ts.Generation)
	single(w, "repro_tune_hits_total", "counter", "Measured-policy selections served from the tuning store.", ts.Hits)
	single(w, "repro_tune_misses_total", "counter", "Measured-policy selections that fell back to the cost prior.", ts.Misses)
	single(w, "repro_tune_hit_ratio", "gauge", "Fraction of measured-policy selections served from the store.", ratio(ts.Hits, ts.Misses))
	single(w, "repro_tune_measurements_total", "counter", "Background candidate races completed by the tuner.", ts.Measured)

	family(w, "repro_request_seconds", "histogram", "Request latency.")
	cum := int64(0)
	for i, ub := range latencyBuckets {
		cum += m.histCounts[i].Load()
		fmt.Fprintf(w, "repro_request_seconds_bucket{le=%q} %d\n", fmt.Sprintf("%g", ub), cum)
	}
	cum += m.histCounts[len(latencyBuckets)].Load()
	fmt.Fprintf(w, "repro_request_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "repro_request_seconds_sum %g\n", float64(m.histSumNs.Load())/1e9)
	fmt.Fprintf(w, "repro_request_seconds_count %d\n", m.histN.Load())
}

// family writes a metric family's HELP and TYPE lines.
func family(w *strings.Builder, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// single writes a family of one unlabelled series; v prints as %d or %g.
func single(w *strings.Builder, name, typ, help string, v any) {
	family(w, name, typ, help)
	fmt.Fprintf(w, "%s %v\n", name, v)
}

// ratio is hits/(hits+misses), 0 before the first lookup.
func ratio(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// snapshot returns (hits, misses, coalesced) for tests and the service
// sweep harness.
func (m *metrics) snapshot() (hits, misses, coalesced int64) {
	return m.cacheHits.Load(), m.cacheMiss.Load(), m.coalesced.Load()
}
