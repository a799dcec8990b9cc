// Package server is the simulation-as-a-service layer: an HTTP/JSON
// front end over internal/spec that turns the simulator into a
// long-running what-if daemon (cmd/serverd hosts it; tests and the
// bench harness embed it in-process).
//
// The service contract is built on spec's canonical form. Every query
// is parsed strictly, canonicalized, and identified by its
// fingerprint; two requests describing the same run — whatever
// shorthand or field order they used — share one cache entry and, when
// concurrent, one execution:
//
//   - identical in-flight queries are coalesced (single-flight): the
//     first request simulates (or prices), the rest park and receive
//     the same result, so a thundering herd of one hot query costs one
//     run
//   - completed results stay in the same fixed-capacity LRU, so a warm
//     cache answers point queries without touching the simulator at
//     all; finishing a computation caches it encoded, and a repeat of
//     the exact body last seen for it is answered before any parsing
//   - execution is bounded by two worker pools: sweep-class queries
//     (long ladders or large worlds) compete for a small pool while
//     point queries keep their own slots, so a batch of sweeps cannot
//     starve interactive what-ifs
//   - DISTINCT fingerprints that share a world shape (machine,
//     topology, engine, fold unit, tuning) reuse a resident simulated
//     world from the spec.WorldPool instead of cold-building one, so
//     the cold path of a varied query mix stays cheap too — see the
//     repro_world_pool_* metrics
//   - each execution runs under the configured timeout; expiry aborts
//     the in-flight world (every blocked rank wakes) and the client
//     gets 504
//   - every daemon carries a measured-policy tuning store (spec.Tuner
//     over internal/tune): queries with tuning policy "measured" serve
//     cached measured winners and feed background measurements;
//     Config.TuneStorePath persists the store across restarts — see
//     the repro_tune_* metrics and TUNING.md
//
// Endpoints: POST /v1/run (simulate), POST /v1/price (selection-engine
// estimates, no simulation), POST /v1/canon (canonical form +
// fingerprint), GET /healthz, GET /metrics (Prometheus text). See
// API.md for the full schema and examples.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/sim"
	"repro/internal/spec"
	"repro/internal/tune"
)

// Config sizes the service. The zero value is usable: every field
// defaults sensibly in New.
type Config struct {
	// Workers bounds concurrently executing point queries (default:
	// GOMAXPROCS).
	Workers int
	// SweepWorkers bounds concurrently executing sweep-class queries
	// (default: Workers/4, at least 1). Kept strictly below Workers so
	// sweeps cannot occupy every slot.
	SweepWorkers int
	// CacheEntries is the result-cache capacity, /v1/run and /v1/price
	// answers together (default 4096).
	CacheEntries int
	// MaxRanks caps the world size one request may declare; bigger
	// queries answer 413 before anything is built (default 1<<20,
	// far below spec's own arithmetic backstop). This is the
	// service-level admission cap the spec package documents as the
	// service layer's responsibility.
	MaxRanks int
	// MaxGoroutineRanks is the tighter cap for goroutine-engine
	// queries, which spawn one worker goroutine per rank (default
	// 1<<16). Event-engine queries are bounded by MaxRanks alone.
	MaxGoroutineRanks int
	// MaxWork caps ranks x ladder length x iters — the total
	// simulated work one request may demand (default 1<<28).
	MaxWork int64
	// WorldPoolRanks is the rank budget of the warm world pool: idle
	// simulated worlds kept resident between queries so distinct
	// fingerprints sharing a shape skip world construction (default
	// 1<<20; negative disables pooling entirely).
	WorldPoolRanks int
	// WorldPoolIdle is how long a pooled world may sit unused before
	// the idle reaper closes it (default 60s).
	WorldPoolIdle time.Duration
	// GroupParallelism bounds how many ladder groups of one query
	// execute concurrently, each on its own world (default 4; 1 runs
	// groups sequentially).
	GroupParallelism int
	// TenantQPS enables per-tenant rate limiting on the query endpoints
	// (/v1/run, /v1/price, /v1/canon): each tenant — the X-Tenant
	// request header, "default" when absent — gets a token bucket
	// refilled at this many requests per second. Rejected requests
	// answer 429 with a Retry-After header. Zero (the default)
	// disables limiting; /healthz and /metrics are never limited.
	TenantQPS float64
	// TenantBurst is each tenant's bucket capacity — how many requests
	// a tenant may issue back to back before the QPS rate gates it
	// (default: 2*TenantQPS rounded up, at least 1).
	TenantBurst int
	// TuneStorePath is where the measured-policy tuning store lives on
	// disk: loaded at startup (a corrupt or version-mismatched file is
	// logged, rejected, and the store starts fresh) and persisted
	// atomically on Close. Empty keeps the store in memory only — the
	// measured policy still works, its winners just die with the
	// daemon.
	TuneStorePath string
	// Timeout is the per-request execution budget; expiry aborts the
	// world and returns 504 (default 60s).
	Timeout time.Duration
	// MaxBodyBytes caps a request body (default 1 MiB).
	MaxBodyBytes int64
	// Logger receives structured request logs (default slog.Default).
	Logger *slog.Logger
}

// A query with at least sweepSizes ladder entries or sweepRanks ranks
// is sweep-class: it runs under SweepWorkers.
const sweepSizes, sweepRanks = 4, 4096

// Server is the what-if service. It implements http.Handler; hosting
// (listening, TLS, graceful shutdown) belongs to the caller — see
// cmd/serverd.
type Server struct {
	cfg     Config
	cache   *cache
	met     *metrics
	mux     *http.ServeMux
	tenants *tenantLimiter // nil when TenantQPS is 0
	tuner   *spec.Tuner    // measured-policy measurement backfill
	exec    spec.Exec      // warm-world execution environment
	points  chan struct{}  // point-class worker slots
	sweeps  chan struct{}  // sweep-class worker slots
	baseCtx context.Context
	stop    context.CancelFunc
}

// New builds a Server from cfg, applying defaults for zero fields.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.SweepWorkers <= 0 {
		cfg.SweepWorkers = cfg.Workers / 4
	}
	if cfg.SweepWorkers < 1 {
		cfg.SweepWorkers = 1
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 4096
	}
	if cfg.MaxRanks <= 0 {
		cfg.MaxRanks = 1 << 20
	}
	if cfg.MaxGoroutineRanks <= 0 {
		cfg.MaxGoroutineRanks = 1 << 16
	}
	if cfg.MaxWork <= 0 {
		cfg.MaxWork = 1 << 28
	}
	if cfg.WorldPoolRanks == 0 {
		cfg.WorldPoolRanks = 1 << 20
	}
	if cfg.WorldPoolIdle <= 0 {
		cfg.WorldPoolIdle = 60 * time.Second
	}
	if cfg.GroupParallelism <= 0 {
		cfg.GroupParallelism = 4
	}
	if cfg.TenantQPS > 0 && cfg.TenantBurst <= 0 {
		cfg.TenantBurst = int(math.Ceil(2 * cfg.TenantQPS))
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 60 * time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 1 << 20
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	ctx, stop := context.WithCancel(context.Background())
	s := &Server{
		cfg:     cfg,
		cache:   newCache(cfg.CacheEntries),
		met:     newMetrics(),
		mux:     http.NewServeMux(),
		points:  make(chan struct{}, cfg.Workers),
		sweeps:  make(chan struct{}, cfg.SweepWorkers),
		baseCtx: ctx,
		stop:    stop,
	}
	if cfg.TenantQPS > 0 {
		s.tenants = newTenantLimiter(cfg.TenantQPS, cfg.TenantBurst)
	}
	store := tune.NewStore()
	if cfg.TuneStorePath != "" {
		loaded, err := tune.Load(cfg.TuneStorePath)
		if err != nil {
			cfg.Logger.Warn("tuning store rejected, starting fresh",
				"path", cfg.TuneStorePath, "error", err)
		} else if loaded.Len() > 0 {
			cfg.Logger.Info("tuning store loaded",
				"path", cfg.TuneStorePath, "entries", loaded.Len())
		}
		store = loaded
	}
	s.tuner = spec.NewTuner(store)
	s.exec.Tuner = s.tuner
	s.exec.Parallelism = cfg.GroupParallelism
	if cfg.WorldPoolRanks > 0 {
		s.exec.Pool = spec.NewWorldPool(spec.PoolConfig{
			MaxRanks: cfg.WorldPoolRanks,
			MaxIdle:  cfg.WorldPoolIdle,
		})
	}
	s.mux.HandleFunc("POST /v1/run", s.instrument("/v1/run", s.rateLimit(s.handleRun)))
	s.mux.HandleFunc("POST /v1/price", s.instrument("/v1/price", s.rateLimit(s.handlePrice)))
	s.mux.HandleFunc("POST /v1/canon", s.instrument("/v1/canon", s.rateLimit(s.handleCanon)))
	s.mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealthz))
	s.mux.HandleFunc("GET /metrics", s.instrument("/metrics", s.handleMetrics))
	return s
}

// ServeHTTP dispatches to the service mux.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close cancels the server's base context — leaders still simulating
// abort their worlds and report cancellation — and retires the warm
// world pool (its idle reaper goroutine included), after which no
// simulator goroutine is left. Call after the HTTP host has stopped
// accepting requests.
func (s *Server) Close() {
	s.stop()
	s.tuner.Close()
	if s.cfg.TuneStorePath != "" {
		if err := s.tuner.Store().Save(s.cfg.TuneStorePath); err != nil {
			s.cfg.Logger.Error("persisting tuning store failed",
				"path", s.cfg.TuneStorePath, "error", err)
		} else {
			s.cfg.Logger.Info("tuning store persisted",
				"path", s.cfg.TuneStorePath, "entries", s.tuner.Store().Len())
		}
	}
	if s.exec.Pool != nil {
		s.exec.Pool.Close()
	}
}

// Stats reports (cacheHits, cacheMisses, coalesced) — consumed by the
// service-sweep bench harness and the smoke tests.
func (s *Server) Stats() (hits, misses, coalesced int64) { return s.met.snapshot() }

// PoolStats snapshots the warm world pool (zero value when pooling is
// disabled) — consumed by the service-sweep bench harness and tests.
func (s *Server) PoolStats() spec.PoolStats {
	if s.exec.Pool == nil {
		return spec.PoolStats{}
	}
	return s.exec.Pool.Stats()
}

// TuneStats snapshots the measured-policy tuning store's counters.
func (s *Server) TuneStats() tune.Stats { return s.tuner.Store().Stats() }

// DrainTuner blocks until the background measurement queue is empty —
// the warm-up hook tests and the bench harness use between a cold run
// and its warm rerun.
func (s *Server) DrainTuner() { s.tuner.Drain() }

// httpError is an error carrying the status code the handler should
// answer with.
type httpError struct {
	code int
	err  error
}

func (e *httpError) Error() string { return e.err.Error() }
func (e *httpError) Unwrap() error { return e.err }

// statusWriter remembers the status code for the request log.
type statusWriter struct {
	http.ResponseWriter
	code int
}

// WriteHeader records the status before delegating.
func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps a handler with latency/count metrics and a
// structured request log line.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		h(sw, r)
		d := time.Since(start)
		s.met.request(endpoint, sw.code, d)
		if s.cfg.Logger.Enabled(r.Context(), slog.LevelDebug) {
			s.cfg.Logger.Debug("request",
				"endpoint", endpoint, "code", sw.code, "duration", d,
				"cache", sw.Header().Get("X-Cache"))
		}
	}
}

// tenantName extracts the request's tenant identity: the X-Tenant
// header, or "default" when absent — anonymous clients share one
// bucket rather than bypassing the limiter.
func tenantName(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return "default"
}

// rateLimit gates a query endpoint behind the per-tenant token
// bucket. A pass-through no-op when limiting is disabled. Rejections
// answer 429 with a Retry-After header (whole seconds, rounded up)
// so well-behaved clients can back off precisely; both outcomes feed
// the repro_tenant_requests_total metric.
func (s *Server) rateLimit(h http.HandlerFunc) http.HandlerFunc {
	if s.tenants == nil {
		return h
	}
	return func(w http.ResponseWriter, r *http.Request) {
		tenant := tenantName(r)
		ok, retry := s.tenants.allow(tenant, time.Now())
		s.met.tenant(tenant, ok)
		if !ok {
			secs := int(math.Ceil(retry.Seconds()))
			if secs < 1 {
				secs = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeError(w, &httpError{http.StatusTooManyRequests,
				fmt.Errorf("server: tenant %q over its %g req/s rate limit, retry in %ds", tenant, s.cfg.TenantQPS, secs)})
			return
		}
		h(w, r)
	}
}

// writeJSON writes v as the JSON response body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	b, _ := encode(v, nil)
	writeBytes(w, code, b)
}

// writeBytes writes an encoded JSON response body.
func writeBytes(w http.ResponseWriter, code int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(b) //nolint:errcheck // client gone is the only failure
}

// encode is the one JSON encoding of every response body, indented and
// newline-terminated; a computed answer is cached as these bytes.
func encode(v any, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	return append(b, '\n'), err
}

// errorBody is the JSON error envelope.
type errorBody struct {
	// Error is the human-readable failure description.
	Error string `json:"error"`
}

// writeError maps err onto the JSON error envelope. Validation errors
// (anything from spec parsing) are 400; timeouts 504; cancellations
// 503; an *httpError carries its own code.
func writeError(w http.ResponseWriter, err error) {
	code := http.StatusInternalServerError
	var he *httpError
	switch {
	case errors.As(err, &he):
		code = he.code
	case errors.Is(err, context.DeadlineExceeded):
		code = http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		code = http.StatusServiceUnavailable
	}
	writeJSON(w, code, errorBody{Error: err.Error()})
}

// readBody reads the request body under the MaxBodyBytes cap.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		return nil, &httpError{http.StatusRequestEntityTooLarge, err}
	}
	return body, nil
}

// parseQuery strictly decodes a request body into a canonical Query,
// applies the service admission caps and fingerprints it.
func (s *Server) parseQuery(body []byte) (*spec.Query, string, error) {
	q, err := spec.Parse(body)
	if err != nil {
		return nil, "", &httpError{http.StatusBadRequest, err}
	}
	if err := s.admit(q); err != nil {
		return nil, "", err
	}
	fp, err := q.Fingerprint()
	if err != nil {
		return nil, "", &httpError{http.StatusBadRequest, err}
	}
	return q, fp, nil
}

// admit applies the service-level resource caps that spec's own
// validation deliberately leaves to this layer: world size (with a
// tighter bound for the goroutine engine, whose worlds cost one
// worker goroutine per rank) and total work across the ladder.
// Violations answer 413 — the query is well-formed, just bigger than
// this daemon accepts.
func (s *Server) admit(q *spec.Query) error {
	ranks := q.Topology.Ranks()
	if ranks > s.cfg.MaxRanks {
		return &httpError{http.StatusRequestEntityTooLarge,
			fmt.Errorf("server: query declares %d ranks, above this server's %d-rank cap", ranks, s.cfg.MaxRanks)}
	}
	if q.Engine == sim.EngineGoroutine.String() && ranks > s.cfg.MaxGoroutineRanks {
		return &httpError{http.StatusRequestEntityTooLarge,
			fmt.Errorf("server: goroutine-engine query declares %d ranks, above this server's %d-rank cap (the event engine accepts up to %d)",
				ranks, s.cfg.MaxGoroutineRanks, s.cfg.MaxRanks)}
	}
	if work := int64(ranks) * int64(len(q.Sizes)) * int64(q.Iters); work > s.cfg.MaxWork {
		return &httpError{http.StatusRequestEntityTooLarge,
			fmt.Errorf("server: query demands %d rank-operations (ranks x sizes x iters), above this server's %d cap", work, s.cfg.MaxWork)}
	}
	return nil
}

// handleRun is POST /v1/run: execute the query (or serve it from the
// cache / an identical in-flight execution) and return the
// spec.Result. The X-Cache response header reports which path answered
// (hit, miss, coalesced); the body is bit-identical on all three.
func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	switch s.serveCached(w, r, false, func(q *spec.Query) ([]byte, error) { return encode(s.execute(q)) }) {
	case hit:
		s.met.cacheHits.Add(1)
	case lead:
		s.met.cacheMiss.Add(1)
	case follow:
		s.met.coalesced.Add(1)
	}
}

// serveCached answers /v1/run's query (price false) or /v1/price's and
// reports how ("" when the body fails to read, parse or pass admission).
// A body aliasing a resident entry is answered from its bytes: Parse is
// a pure function and the caps are fixed at New, so those bytes passed
// both before. Otherwise a follower waits for the leader or for its own
// client to give up, and a leader computes; finish runs even if compute
// panics, or every later identical query would park forever.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, price bool, compute func(*spec.Query) ([]byte, error)) outcome {
	body, err := s.readBody(w, r)
	if err != nil {
		writeError(w, err)
		return ""
	}
	raw := rawKey{sha256.Sum256(body), price}
	if e := s.cache.lookup(raw); e != nil {
		w.Header().Set("X-Cache", string(hit))
		writeBytes(w, http.StatusOK, e.body)
		return hit
	}
	q, fp, err := s.parseQuery(body)
	if err != nil {
		writeError(w, err)
		return ""
	}
	// Measured-policy results depend on the tuning store's contents as
	// well as the query, so their bytes are never aliased and a run's
	// key carries the store generation: once the tuner learns a point,
	// the next identical request re-executes against the warmer store.
	key := cacheKey{fp: fp, price: price}
	if q.Tuning.Policy == "measured" {
		raw = rawKey{}
		if !price {
			key.gen = s.tuner.Store().Generation()
		}
	}
	e, o := s.cache.join(key, raw)
	switch o {
	case follow:
		select {
		case <-e.done:
		case <-r.Context().Done():
			writeError(w, r.Context().Err())
			return o
		}
	case lead:
		func() {
			defer func() {
				if p := recover(); p != nil {
					s.cache.finish(e, nil, fmt.Errorf("server: panic during execution: %v", p))
					panic(p)
				}
			}()
			body, err := compute(q)
			s.cache.finish(e, body, err)
		}()
	}
	if e.err != nil {
		writeError(w, e.err)
		return o
	}
	w.Header().Set("X-Cache", string(o))
	writeBytes(w, http.StatusOK, e.body)
	return o
}

// execute runs the query under the worker pools and the configured
// timeout. Long ladders and large worlds compete for the sweep pool,
// which would otherwise leave point queries no slot. The execution
// context descends from the server's base context, not the requester's:
// coalesced followers must receive the result even if the leader's
// client disconnects.
func (s *Server) execute(q *spec.Query) (*spec.Result, error) {
	pool, busy := s.points, &s.met.pointBusy
	if len(q.Sizes) >= sweepSizes || q.Topology.Ranks() >= sweepRanks {
		pool, busy = s.sweeps, &s.met.sweepBusy
	}
	ctx, cancel := context.WithTimeout(s.baseCtx, s.cfg.Timeout)
	defer cancel()
	select {
	case pool <- struct{}{}:
	case <-ctx.Done():
		return nil, fmt.Errorf("server: waiting for a worker slot: %w", ctx.Err())
	}
	busy.Add(1)
	defer func() { busy.Add(-1); <-pool }()
	return s.exec.RunContext(ctx, q)
}

// handlePrice is POST /v1/price: run the selection engine over the
// ladder without simulating. Cheap enough that it bypasses the worker
// pools; cached, coalesced and aliased like /v1/run, but not counted in
// the run cache counters.
func (s *Server) handlePrice(w http.ResponseWriter, r *http.Request) {
	s.serveCached(w, r, true, func(q *spec.Query) ([]byte, error) { return encode(spec.Price(q)) })
}

// canonBody is the POST /v1/canon response: the canonical form and
// its fingerprint, without executing anything.
type canonBody struct {
	// Fingerprint is the hex SHA-256 of Canonical.
	Fingerprint string `json:"fingerprint"`
	// Canonical is the canonical JSON of the submitted query.
	Canonical json.RawMessage `json:"canonical"`
}

// handleCanon is POST /v1/canon: validate, canonicalize, fingerprint.
func (s *Server) handleCanon(w http.ResponseWriter, r *http.Request) {
	body, err := s.readBody(w, r)
	if err != nil {
		writeError(w, err)
		return
	}
	q, fp, err := s.parseQuery(body)
	if err != nil {
		writeError(w, err)
		return
	}
	canon, err := q.CanonicalJSON()
	if err != nil {
		writeError(w, &httpError{http.StatusBadRequest, err})
		return
	}
	writeJSON(w, http.StatusOK, canonBody{Fingerprint: fp, Canonical: canon})
}

// handleHealthz is GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics is GET /metrics: Prometheus text exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	s.met.render(&b, s.cache.len(), s.cfg.Workers, s.cfg.SweepWorkers, s.PoolStats(), s.TuneStats())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	io.WriteString(w, b.String()) //nolint:errcheck // client gone is the only failure
}
