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
	fmt.Fprintf(w, "# HELP repro_requests_total Completed HTTP requests by endpoint and status code.\n")
	fmt.Fprintf(w, "# TYPE repro_requests_total counter\n")
	m.mu.Lock()
	for _, l := range slices.SortedFunc(maps.Keys(m.requests), func(a, b requestLabels) int {
		return cmp.Or(strings.Compare(a.endpoint, b.endpoint), cmp.Compare(a.code, b.code))
	}) {
		fmt.Fprintf(w, "repro_requests_total{endpoint=%q,code=\"%d\"} %d\n", l.endpoint, l.code, m.requests[l])
	}
	if len(m.tenants) > 0 {
		fmt.Fprintf(w, "# HELP repro_tenant_requests_total Per-tenant rate-limiter decisions on the query endpoints.\n")
		fmt.Fprintf(w, "# TYPE repro_tenant_requests_total counter\n")
		for _, l := range slices.SortedFunc(maps.Keys(m.tenants), func(a, b tenantLabels) int {
			return cmp.Or(strings.Compare(a.name, b.name), strings.Compare(a.outcomeLabel(), b.outcomeLabel()))
		}) {
			fmt.Fprintf(w, "repro_tenant_requests_total{tenant=%q,outcome=%q} %d\n", l.name, l.outcomeLabel(), m.tenants[l])
		}
	}
	m.mu.Unlock()

	hits, miss := m.cacheHits.Load(), m.cacheMiss.Load()
	fmt.Fprintf(w, "# HELP repro_cache_hits_total Run results served from the LRU cache.\n")
	fmt.Fprintf(w, "# TYPE repro_cache_hits_total counter\nrepro_cache_hits_total %d\n", hits)
	fmt.Fprintf(w, "# HELP repro_cache_misses_total Run queries that had to simulate.\n")
	fmt.Fprintf(w, "# TYPE repro_cache_misses_total counter\nrepro_cache_misses_total %d\n", miss)
	ratio := 0.0
	if hits+miss > 0 {
		ratio = float64(hits) / float64(hits+miss)
	}
	fmt.Fprintf(w, "# HELP repro_cache_hit_ratio Fraction of run lookups served from cache.\n")
	fmt.Fprintf(w, "# TYPE repro_cache_hit_ratio gauge\nrepro_cache_hit_ratio %g\n", ratio)
	fmt.Fprintf(w, "# HELP repro_cache_entries Resident result-cache entries.\n")
	fmt.Fprintf(w, "# TYPE repro_cache_entries gauge\nrepro_cache_entries %d\n", cacheLen)
	fmt.Fprintf(w, "# HELP repro_coalesced_total Requests that joined an identical in-flight query.\n")
	fmt.Fprintf(w, "# TYPE repro_coalesced_total counter\nrepro_coalesced_total %d\n", m.coalesced.Load())

	fmt.Fprintf(w, "# HELP repro_pool_busy Worker slots currently executing, by class.\n")
	fmt.Fprintf(w, "# TYPE repro_pool_busy gauge\n")
	fmt.Fprintf(w, "repro_pool_busy{class=\"point\"} %d\n", m.pointBusy.Load())
	fmt.Fprintf(w, "repro_pool_busy{class=\"sweep\"} %d\n", m.sweepBusy.Load())
	fmt.Fprintf(w, "# HELP repro_pool_capacity Worker slots configured, by class.\n")
	fmt.Fprintf(w, "# TYPE repro_pool_capacity gauge\n")
	fmt.Fprintf(w, "repro_pool_capacity{class=\"point\"} %d\n", pointCap)
	fmt.Fprintf(w, "repro_pool_capacity{class=\"sweep\"} %d\n", sweepCap)

	fmt.Fprintf(w, "# HELP repro_world_pool_hits_total World checkouts served by a resident warm world.\n")
	fmt.Fprintf(w, "# TYPE repro_world_pool_hits_total counter\nrepro_world_pool_hits_total %d\n", ps.Hits)
	fmt.Fprintf(w, "# HELP repro_world_pool_misses_total World checkouts that had to build a world.\n")
	fmt.Fprintf(w, "# TYPE repro_world_pool_misses_total counter\nrepro_world_pool_misses_total %d\n", ps.Misses)
	fmt.Fprintf(w, "# HELP repro_world_pool_hit_ratio Fraction of world checkouts served warm.\n")
	fmt.Fprintf(w, "# TYPE repro_world_pool_hit_ratio gauge\nrepro_world_pool_hit_ratio %g\n", ps.HitRatio())
	fmt.Fprintf(w, "# HELP repro_world_pool_resident_worlds Resident simulated worlds, by state.\n")
	fmt.Fprintf(w, "# TYPE repro_world_pool_resident_worlds gauge\n")
	fmt.Fprintf(w, "repro_world_pool_resident_worlds{state=\"idle\"} %d\n", ps.IdleWorlds)
	fmt.Fprintf(w, "repro_world_pool_resident_worlds{state=\"leased\"} %d\n", ps.Leased)
	fmt.Fprintf(w, "# HELP repro_world_pool_resident_ranks Rank total across idle resident worlds.\n")
	fmt.Fprintf(w, "# TYPE repro_world_pool_resident_ranks gauge\nrepro_world_pool_resident_ranks %d\n", ps.IdleRanks)
	fmt.Fprintf(w, "# HELP repro_world_pool_retired_total Pooled worlds closed, by reason.\n")
	fmt.Fprintf(w, "# TYPE repro_world_pool_retired_total counter\n")
	fmt.Fprintf(w, "repro_world_pool_retired_total{reason=\"evicted\"} %d\n", ps.Evicted)
	fmt.Fprintf(w, "repro_world_pool_retired_total{reason=\"reaped\"} %d\n", ps.Reaped)
	fmt.Fprintf(w, "repro_world_pool_retired_total{reason=\"discarded\"} %d\n", ps.Discarded)

	fmt.Fprintf(w, "# HELP repro_tune_store_entries Cached measured-policy selection points in the tuning store.\n")
	fmt.Fprintf(w, "# TYPE repro_tune_store_entries gauge\nrepro_tune_store_entries %d\n", ts.Entries)
	fmt.Fprintf(w, "# HELP repro_tune_store_generation Tuning-store insert counter (grows with every measured winner).\n")
	fmt.Fprintf(w, "# TYPE repro_tune_store_generation gauge\nrepro_tune_store_generation %d\n", ts.Generation)
	fmt.Fprintf(w, "# HELP repro_tune_hits_total Measured-policy selections served from the tuning store.\n")
	fmt.Fprintf(w, "# TYPE repro_tune_hits_total counter\nrepro_tune_hits_total %d\n", ts.Hits)
	fmt.Fprintf(w, "# HELP repro_tune_misses_total Measured-policy selections that fell back to the cost prior.\n")
	fmt.Fprintf(w, "# TYPE repro_tune_misses_total counter\nrepro_tune_misses_total %d\n", ts.Misses)
	tuneRatio := 0.0
	if ts.Hits+ts.Misses > 0 {
		tuneRatio = float64(ts.Hits) / float64(ts.Hits+ts.Misses)
	}
	fmt.Fprintf(w, "# HELP repro_tune_hit_ratio Fraction of measured-policy selections served from the store.\n")
	fmt.Fprintf(w, "# TYPE repro_tune_hit_ratio gauge\nrepro_tune_hit_ratio %g\n", tuneRatio)
	fmt.Fprintf(w, "# HELP repro_tune_measurements_total Background candidate races completed by the tuner.\n")
	fmt.Fprintf(w, "# TYPE repro_tune_measurements_total counter\nrepro_tune_measurements_total %d\n", ts.Measured)

	fmt.Fprintf(w, "# HELP repro_request_seconds Request latency.\n")
	fmt.Fprintf(w, "# TYPE repro_request_seconds histogram\n")
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

// snapshot returns (hits, misses, coalesced) for tests and the service
// sweep harness.
func (m *metrics) snapshot() (hits, misses, coalesced int64) {
	return m.cacheHits.Load(), m.cacheMiss.Load(), m.coalesced.Load()
}
