package server_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/spec"
)

var update = flag.Bool("update", false, "rewrite the golden response files")

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func newTestServer() *server.Server {
	return server.New(server.Config{
		Workers:      4,
		SweepWorkers: 1,
		Timeout:      30 * time.Second,
		Logger:       quietLogger(),
	})
}

func do(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

const pointBody = `{"machine":"laptop","topology":{"nodes":2,"ppn":2},
	"collective":"allgather","sizes":[64,4096],"tuning":{"policy":"cost"}}`

// goldenCases is TestHandlerGolden's table, and the seed corpus of
// FuzzRepeatAnswersAlike. It is ordered: the repeated run must be the
// cache hit, with a body byte-identical to the miss.
var goldenCases = []struct {
	name      string
	method    string
	path      string
	body      string
	wantCode  int
	wantCache string
}{
	{"run_point", "POST", "/v1/run", pointBody, 200, "miss"},
	{"run_point", "POST", "/v1/run", pointBody, 200, "hit"},
	{"run_barrier", "POST", "/v1/run",
		`{"machine":"laptop","topology":{"nodes":2,"ppn":2},"collective":"barrier","sizes":[1,2,3]}`,
		200, "miss"},
	{"price_allgather", "POST", "/v1/price",
		`{"machine":"hazelhen-cray","topology":{"nodes":8,"ppn":8},"collective":"allgather","sizes":[64,1048576]}`,
		200, "miss"},
	{"canon_shorthand", "POST", "/v1/canon",
		`{"machine":"laptop","topology":{"nodes":2,"ppn":2},"collective":"bcast","sizes":[8]}`,
		200, ""},
	{"canon_stack", "POST", "/v1/canon",
		`{"engine":"goroutine","machine":"laptop","collective":"bcast","sizes":[8],
			  "topology":{"per_leaf":2,"levels":[{"name":"node","arity":2}]}}`,
		200, ""},
	{"err_unknown_field", "POST", "/v1/run",
		`{"machine":"laptop","topology":{"nodes":2,"ppn":2},"collective":"bcast","sizes":[8],"warp":9}`,
		400, ""},
	{"err_bad_machine", "POST", "/v1/run",
		`{"machine":"cray-3","topology":{"nodes":2,"ppn":2},"collective":"bcast","sizes":[8]}`,
		400, ""},
	{"healthz", "GET", "/healthz", "", 200, ""},
}

// TestHandlerGolden drives every JSON endpoint through one server and
// compares full response bodies against testdata goldens (regenerate
// with -update).
func TestHandlerGolden(t *testing.T) {
	srv := newTestServer()
	defer srv.Close()
	bodies := map[string][]byte{}
	for i, tc := range goldenCases {
		rec := do(t, srv, tc.method, tc.path, tc.body)
		if rec.Code != tc.wantCode {
			t.Fatalf("case %d %s: code %d, want %d: %s", i, tc.name, rec.Code, tc.wantCode, rec.Body)
		}
		if got := rec.Header().Get("X-Cache"); got != tc.wantCache {
			t.Errorf("case %d %s: X-Cache %q, want %q", i, tc.name, got, tc.wantCache)
		}
		if prev, ok := bodies[tc.name]; ok {
			if !bytes.Equal(prev, rec.Body.Bytes()) {
				t.Errorf("case %d %s: repeat body differs from first response", i, tc.name)
			}
			continue
		}
		bodies[tc.name] = rec.Body.Bytes()
		golden := filepath.Join("testdata", tc.name+".golden")
		if *update {
			if err := os.WriteFile(golden, rec.Body.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatalf("%s (run with -update to regenerate): %v", golden, err)
		}
		if !bytes.Equal(want, rec.Body.Bytes()) {
			t.Errorf("%s: response drifted from golden:\n got: %s\nwant: %s", tc.name, rec.Body, want)
		}
	}
	// The two canonical forms describe the same run: identical
	// fingerprints, identical canonical JSON, hence identical bodies.
	if !bytes.Equal(bodies["canon_shorthand"], bodies["canon_stack"]) {
		t.Errorf("shorthand and stack canon bodies differ:\n%s\n%s",
			bodies["canon_shorthand"], bodies["canon_stack"])
	}
}

// TestMethodAndRouteErrors covers the mux-level failure surface.
func TestMethodAndRouteErrors(t *testing.T) {
	srv := newTestServer()
	defer srv.Close()
	if rec := do(t, srv, "GET", "/v1/run", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/run = %d, want 405", rec.Code)
	}
	if rec := do(t, srv, "POST", "/v1/nope", "{}"); rec.Code != http.StatusNotFound {
		t.Errorf("POST /v1/nope = %d, want 404", rec.Code)
	}
}

// TestMetricsEndpoint checks the exposition after traffic: counters
// present, cache ratio positive once a hit happened.
func TestMetricsEndpoint(t *testing.T) {
	srv := newTestServer()
	defer srv.Close()
	for i := 0; i < 3; i++ {
		if rec := do(t, srv, "POST", "/v1/run", pointBody); rec.Code != 200 {
			t.Fatalf("run %d: %d %s", i, rec.Code, rec.Body)
		}
	}
	rec := do(t, srv, "GET", "/metrics", "")
	if rec.Code != 200 {
		t.Fatalf("metrics: %d", rec.Code)
	}
	out := rec.Body.String()
	for _, want := range []string{
		"repro_cache_hits_total 2",
		"repro_cache_misses_total 1",
		"repro_requests_total{endpoint=\"/v1/run\",code=\"200\"} 3",
		"repro_cache_hit_ratio 0.6666666666666666",
		"repro_pool_capacity{class=\"point\"} 4",
		"repro_request_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
}

// TestHTTPMatchesCLI is the acceptance cross-check: the same Query
// through spec.Run (the CLI path) and through the HTTP handler yields
// bit-identical virtual times.
func TestHTTPMatchesCLI(t *testing.T) {
	q, err := spec.Parse([]byte(pointBody))
	if err != nil {
		t.Fatal(err)
	}
	direct, err := spec.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	srv := newTestServer()
	defer srv.Close()
	rec := do(t, srv, "POST", "/v1/run", pointBody)
	if rec.Code != 200 {
		t.Fatalf("http run: %d %s", rec.Code, rec.Body)
	}
	var viaHTTP spec.Result
	if err := jsonUnmarshalStrict(rec.Body.Bytes(), &viaHTTP); err != nil {
		t.Fatal(err)
	}
	if viaHTTP.Fingerprint != direct.Fingerprint {
		t.Errorf("fingerprints differ: %s vs %s", viaHTTP.Fingerprint, direct.Fingerprint)
	}
	if err := spec.Agree("http", &viaHTTP, direct); err != nil {
		t.Error(err)
	}
}

// TestConcurrentClientsCoalesce hammers one fingerprint from many
// goroutines (run under -race in CI): every response must be 200 with
// a byte-identical body, and the server must have simulated the query
// far fewer times than it answered it.
func TestConcurrentClientsCoalesce(t *testing.T) {
	srv := newTestServer()
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const clients = 24
	body := `{"machine":"laptop","topology":{"nodes":4,"ppn":4},
		"collective":"allreduce","sizes":[1048576],"iters":4}`
	var wg sync.WaitGroup
	responses := make([][]byte, clients)
	errs := make([]error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
			if err != nil {
				errs[i] = err
				return
			}
			defer resp.Body.Close()
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				errs[i] = err
				return
			}
			if resp.StatusCode != 200 {
				t.Errorf("client %d: %d %s", i, resp.StatusCode, b)
				return
			}
			responses[i] = b
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	for i := 1; i < clients; i++ {
		if !bytes.Equal(responses[0], responses[i]) {
			t.Errorf("client %d body differs from client 0:\n%s\n%s", i, responses[i], responses[0])
		}
	}
	hits, misses, coalesced := srv.Stats()
	if hits+misses+coalesced != clients {
		t.Errorf("stats hits=%d misses=%d coalesced=%d do not add up to %d clients",
			hits, misses, coalesced, clients)
	}
	if misses == clients {
		t.Errorf("no request was coalesced or cache-served (misses=%d)", misses)
	}
	t.Logf("hits=%d misses=%d coalesced=%d", hits, misses, coalesced)
}

// TestConcurrentPriceCoalesces: /v1/price shares the run path's cache,
// so identical concurrent price queries compute once. Exactly one
// request answers as the miss, the rest hit or coalesce onto it, and
// every body is byte-identical.
func TestConcurrentPriceCoalesces(t *testing.T) {
	srv := newTestServer()
	defer srv.Close()
	const clients = 16
	body := `{"machine":"hazelhen-cray","topology":{"nodes":64,"ppn":24},"collective":"allreduce",
		"sizes":[8,16,32,64,128,256,512,1024,2048,4096,8192,16384,32768,65536,131072,262144,
		524288,1048576,2097152,4194304,8388608,16777216,33554432,67108864]}`
	start := make(chan struct{})
	recs := make([]*httptest.ResponseRecorder, clients)
	var wg sync.WaitGroup
	for i := range recs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest("POST", "/v1/price", strings.NewReader(body))
			recs[i] = httptest.NewRecorder()
			<-start
			srv.ServeHTTP(recs[i], req)
		}()
	}
	close(start)
	wg.Wait()
	misses := 0
	for i, rec := range recs {
		if rec.Code != 200 {
			t.Fatalf("client %d: %d %s", i, rec.Code, rec.Body)
		}
		switch c := rec.Header().Get("X-Cache"); c {
		case "miss":
			misses++
		case "hit", "coalesced":
		default:
			t.Errorf("client %d: X-Cache %q", i, c)
		}
		if !bytes.Equal(rec.Body.Bytes(), recs[0].Body.Bytes()) {
			t.Errorf("client %d body differs from client 0", i)
		}
	}
	if misses != 1 {
		t.Errorf("%d of %d identical price queries computed, want 1", misses, clients)
	}
}

// TestExecuteTimeout: a timeout too short to even acquire a slot must
// surface as 504, not hang.
func TestExecuteTimeout(t *testing.T) {
	srv := server.New(server.Config{
		Workers: 1, SweepWorkers: 1,
		Timeout: time.Nanosecond,
		Logger:  quietLogger(),
	})
	defer srv.Close()
	rec := do(t, srv, "POST", "/v1/run", pointBody)
	if rec.Code != http.StatusGatewayTimeout {
		t.Errorf("code %d, want 504: %s", rec.Code, rec.Body)
	}
}

// doTenant is do with an X-Tenant header ("" sends none).
func doTenant(t *testing.T, h http.Handler, method, path, body, tenant string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestTenantRateLimit: with a 1 qps / burst-2 limit, a tenant's third
// back-to-back query answers 429 with a Retry-After header, other
// tenants keep their own budget, anonymous requests share the
// "default" bucket, and the ops endpoints are never limited.
func TestTenantRateLimit(t *testing.T) {
	srv := server.New(server.Config{
		Workers: 2, SweepWorkers: 1,
		TenantQPS:   1,
		TenantBurst: 2,
		Timeout:     30 * time.Second,
		Logger:      quietLogger(),
	})
	defer srv.Close()
	canon := `{"machine":"laptop","topology":{"nodes":2,"ppn":2},"collective":"bcast","sizes":[8]}`

	for i := 0; i < 2; i++ {
		if rec := doTenant(t, srv, "POST", "/v1/canon", canon, "alice"); rec.Code != 200 {
			t.Fatalf("alice request %d: code %d, want 200: %s", i, rec.Code, rec.Body)
		}
	}
	rec := doTenant(t, srv, "POST", "/v1/canon", canon, "alice")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("alice over burst: code %d, want 429: %s", rec.Code, rec.Body)
	}
	if ra := rec.Header().Get("Retry-After"); ra == "" || ra == "0" {
		t.Errorf("429 without a useful Retry-After header (%q)", ra)
	}
	var body struct {
		Error string `json:"error"`
	}
	if err := jsonUnmarshalStrict(rec.Body.Bytes(), &body); err != nil || body.Error == "" {
		t.Errorf("429 body is not the JSON error envelope: %s (%v)", rec.Body, err)
	}

	// Another tenant and the anonymous default bucket are unaffected by
	// alice burning her budget.
	if rec := doTenant(t, srv, "POST", "/v1/canon", canon, "bob"); rec.Code != 200 {
		t.Errorf("bob: code %d, want 200: %s", rec.Code, rec.Body)
	}
	if rec := do(t, srv, "POST", "/v1/canon", canon); rec.Code != 200 {
		t.Errorf("anonymous: code %d, want 200: %s", rec.Code, rec.Body)
	}
	// Anonymous clients share one bucket: two more exhaust "default".
	do(t, srv, "POST", "/v1/canon", canon)
	if rec := do(t, srv, "POST", "/v1/canon", canon); rec.Code != http.StatusTooManyRequests {
		t.Errorf("third anonymous request: code %d, want 429: %s", rec.Code, rec.Body)
	}

	// Ops endpoints stay reachable for a limited tenant.
	if rec := doTenant(t, srv, "GET", "/healthz", "", "alice"); rec.Code != 200 {
		t.Errorf("healthz limited: code %d", rec.Code)
	}
	met := doTenant(t, srv, "GET", "/metrics", "", "alice")
	if met.Code != 200 {
		t.Fatalf("metrics: code %d", met.Code)
	}
	out := met.Body.String()
	for _, want := range []string{
		`repro_tenant_requests_total{tenant="alice",outcome="allowed"} 2`,
		`repro_tenant_requests_total{tenant="alice",outcome="limited"} 1`,
		`repro_tenant_requests_total{tenant="default",outcome="limited"} 1`,
		`repro_requests_total{endpoint="/v1/canon",code="429"}`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q in:\n%s", want, out)
		}
	}
}

// TestTenantRateLimitDisabled: the zero config imposes no limit.
func TestTenantRateLimitDisabled(t *testing.T) {
	srv := newTestServer()
	defer srv.Close()
	canon := `{"machine":"laptop","topology":{"nodes":2,"ppn":2},"collective":"bcast","sizes":[8]}`
	for i := 0; i < 50; i++ {
		if rec := doTenant(t, srv, "POST", "/v1/canon", canon, "hammer"); rec.Code != 200 {
			t.Fatalf("request %d limited with TenantQPS=0: %d %s", i, rec.Code, rec.Body)
		}
	}
}

// jsonUnmarshalStrict decodes exactly one JSON value, rejecting
// unknown fields — response schemas drifting from spec.Result should
// fail loudly here.
func jsonUnmarshalStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// TestAdmissionCaps: one well-formed request must not be able to OOM
// the daemon — the service rejects worlds above MaxRanks, goroutine
// worlds above the tighter MaxGoroutineRanks, and ranks x sizes x
// iters above MaxWork with 413 before anything is built.
func TestAdmissionCaps(t *testing.T) {
	srv := server.New(server.Config{
		Workers: 2, SweepWorkers: 1,
		MaxRanks:          1 << 12,
		MaxGoroutineRanks: 64,
		MaxWork:           1 << 16,
		Timeout:           30 * time.Second,
		Logger:            quietLogger(),
	})
	defer srv.Close()
	reject := []struct{ name, path, body string }{
		{"ranks over cap", "/v1/run",
			`{"machine":"laptop","topology":{"nodes":1024,"ppn":16},"collective":"bcast","sizes":[8],"engine":"event"}`},
		{"goroutine ranks over goroutine cap", "/v1/run",
			`{"machine":"laptop","topology":{"nodes":16,"ppn":8},"collective":"bcast","sizes":[8]}`},
		{"work over cap", "/v1/run",
			`{"machine":"laptop","topology":{"nodes":8,"ppn":8},"collective":"bcast","sizes":[8],"iters":2048,"engine":"event"}`},
		{"price shares the caps", "/v1/price",
			`{"machine":"laptop","topology":{"nodes":1024,"ppn":16},"collective":"bcast","sizes":[8]}`},
	}
	for _, tc := range reject {
		if rec := do(t, srv, "POST", tc.path, tc.body); rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: code %d, want 413: %s", tc.name, rec.Code, rec.Body)
		}
	}
	// The same 128-rank world the goroutine engine was refused is fine
	// on the event engine: the caps are engine-aware, not blanket.
	eventBody := `{"machine":"laptop","topology":{"nodes":16,"ppn":8},"collective":"bcast","sizes":[8],"engine":"event"}`
	if rec := do(t, srv, "POST", "/v1/run", eventBody); rec.Code != 200 {
		t.Errorf("event-engine query within caps: code %d, want 200: %s", rec.Code, rec.Body)
	}
	inCap := `{"machine":"laptop","topology":{"nodes":2,"ppn":2},"collective":"bcast","sizes":[8]}`
	if rec := do(t, srv, "POST", "/v1/run", inCap); rec.Code != 200 {
		t.Errorf("in-cap goroutine query: code %d, want 200: %s", rec.Code, rec.Body)
	}
}

// replayWriter is the reusable http.ResponseWriter of TestWarmHitAllocs.
type replayWriter struct {
	header http.Header
	code   int
	body   []byte
}

func (w *replayWriter) Header() http.Header  { return w.header }
func (w *replayWriter) WriteHeader(code int) { w.code = code }
func (w *replayWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// TestWarmHitAllocs pins what a warm /v1/run hit allocates when it is
// sent as the serve-warm benchmark sends it: one request replayed by
// rewinding its body into one writer reset between answers. A hit
// answered from its stored bytes allocates a handful of objects; one
// that parses, fingerprints and encodes again allocates about forty.
func TestWarmHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	srv := newTestServer()
	defer srv.Close()
	raw := []byte(pointBody)
	var body bytes.Reader
	req, err := http.NewRequest("POST", "/v1/run", io.NopCloser(&body))
	if err != nil {
		t.Fatal(err)
	}
	w := &replayWriter{header: http.Header{}, body: make([]byte, 0, 4096)}
	send := func() {
		body.Reset(raw)
		clear(w.header)
		w.code, w.body = 0, w.body[:0]
		srv.ServeHTTP(w, req)
	}
	send()
	send()
	if w.code != 200 || w.header.Get("X-Cache") != "hit" {
		t.Fatalf("warm request: code %d, X-Cache %q: %s", w.code, w.header.Get("X-Cache"), w.body)
	}
	if n := testing.AllocsPerRun(200, send); n > 5 {
		t.Errorf("a warm hit allocates %.1f objects, want at most 5", n)
	}
}

// FuzzRepeatAnswersAlike: any body sent twice to a query endpoint gets
// the same status and the same bytes both times, and when the first
// answer was a miss the second is a hit. The seeds are the bodies of
// TestHandlerGolden. Measured-policy bodies are skipped: their answer
// may move with the tuning store between the two sends.
func FuzzRepeatAnswersAlike(f *testing.F) {
	endpoints := []string{"/v1/run", "/v1/price", "/v1/canon"}
	for _, tc := range goldenCases {
		if i := slices.Index(endpoints, tc.path); i >= 0 {
			f.Add(uint8(i), tc.body)
		}
	}
	srv := server.New(server.Config{
		Workers: 2, SweepWorkers: 1,
		MaxRanks: 256, MaxWork: 1 << 16,
		Timeout: 10 * time.Second,
		Logger:  quietLogger(),
	})
	defer srv.Close()
	f.Fuzz(func(t *testing.T, endpoint uint8, body string) {
		if q, err := spec.Parse([]byte(body)); err == nil && q.Tuning.Policy == "measured" {
			t.Skip("measured policy")
		}
		path := endpoints[int(endpoint)%len(endpoints)]
		first := do(t, srv, "POST", path, body)
		again := do(t, srv, "POST", path, body)
		if first.Code != again.Code || !bytes.Equal(first.Body.Bytes(), again.Body.Bytes()) {
			t.Fatalf("%s %q answered %d then %d:\n%s\n%s", path, body, first.Code, again.Code, first.Body, again.Body)
		}
		if first.Header().Get("X-Cache") == "miss" && again.Header().Get("X-Cache") != "hit" {
			t.Fatalf("%s %q: a miss was followed by X-Cache %q", path, body, again.Header().Get("X-Cache"))
		}
	})
}
