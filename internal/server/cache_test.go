package server

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"io"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// mustJoin calls c.join and fails the test unless the outcome is want.
func mustJoin(t *testing.T, c *cache, key cacheKey, want outcome) *cacheEntry {
	t.Helper()
	e, o := c.join(key, rawKey{})
	if o != want {
		t.Fatalf("join(%v) = %s, want %s", key, o, want)
	}
	return e
}

// TestCacheFailureIsForgotten: a failed leader hands its error to its
// followers, leaves nothing resident, and the next join leads again.
func TestCacheFailureIsForgotten(t *testing.T) {
	c := newCache(4)
	k := cacheKey{fp: "a"}
	leader := mustJoin(t, c, k, lead)
	follower := mustJoin(t, c, k, follow)
	if follower != leader {
		t.Fatal("a follower must wait on the leader's entry")
	}
	boom := errors.New("boom")
	c.finish(leader, nil, boom)
	<-follower.done
	if !errors.Is(follower.err, boom) {
		t.Fatalf("follower err %v, want %v", follower.err, boom)
	}
	if n := c.len(); n != 0 {
		t.Fatalf("len %d after a failure, want 0", n)
	}
	if e := mustJoin(t, c, k, lead); e == leader {
		t.Fatal("the retry reused the failed entry")
	}
}

// TestCacheFinishIsCaching: finishing is caching, so every request that
// joins once the leader is done hits, with no window between the two.
// Each follower joins again the moment it wakes.
func TestCacheFinishIsCaching(t *testing.T) {
	c := newCache(4)
	k := cacheKey{fp: "a", gen: 3}
	leader := mustJoin(t, c, k, lead)
	const followers = 16
	var wg sync.WaitGroup
	outcomes := make([]outcome, followers)
	for i := range followers {
		e := mustJoin(t, c, k, follow)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-e.done
			_, outcomes[i] = c.join(k, rawKey{})
		}()
	}
	c.finish(leader, []byte("result"), nil)
	if e := mustJoin(t, c, k, hit); string(e.body) != "result" {
		t.Fatalf("hit served %q", e.body)
	}
	wg.Wait()
	for i, o := range outcomes {
		if o != hit {
			t.Errorf("follower %d rejoined as %s, want hit", i, o)
		}
	}
	// The same fingerprint under another generation or endpoint is
	// another key.
	mustJoin(t, c, cacheKey{fp: "a", gen: 4}, lead)
	mustJoin(t, c, cacheKey{fp: "a", gen: 3, price: true}, lead)
}

// TestCacheEvictsOnlyResident: in-flight entries neither count toward
// the capacity nor get evicted, and eviction takes the least recently
// used resident entry.
func TestCacheEvictsOnlyResident(t *testing.T) {
	c := newCache(2)
	a, b, x, d := cacheKey{fp: "a"}, cacheKey{fp: "b"}, cacheKey{fp: "x"}, cacheKey{fp: "d"}
	c.finish(mustJoin(t, c, a, lead), []byte("A"), nil)
	c.finish(mustJoin(t, c, b, lead), []byte("B"), nil)
	inflight := mustJoin(t, c, x, lead)
	if n := c.len(); n != 2 {
		t.Fatalf("len %d with two resident and one in flight, want 2", n)
	}
	mustJoin(t, c, a, hit) // a is now the most recently used
	c.finish(mustJoin(t, c, d, lead), []byte("D"), nil)
	if n := c.len(); n != 2 {
		t.Fatalf("len %d after an eviction, want 2", n)
	}
	mustJoin(t, c, a, hit)
	mustJoin(t, c, d, hit)
	if mustJoin(t, c, x, follow) != inflight {
		t.Fatal("the in-flight entry was evicted")
	}
	mustJoin(t, c, b, lead) // the least recently used resident entry went
	c.finish(inflight, []byte("X"), nil)
	mustJoin(t, c, x, hit)
	if n := c.len(); n != 2 {
		t.Fatalf("len %d, want the capacity 2", n)
	}
}

// post sends body to path on s and records the answer.
func post(s *Server, path, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", path, strings.NewReader(body)))
	return rec
}

// newAliasServer is a quiet two-worker server for the alias tests.
func newAliasServer(t *testing.T, cfg Config) *Server {
	cfg.Workers, cfg.SweepWorkers = 2, 1
	cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	s := New(cfg)
	t.Cleanup(s.Close)
	return s
}

// aliased reports whether body, sent to /v1/run or (price) /v1/price,
// is the alias of a cache entry.
func aliased(s *Server, body string, price bool) bool {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	_, ok := s.cache.aliases[rawKey{sha256.Sum256([]byte(body)), price}]
	return ok
}

// aliasCount reports the alias and resident entry counts.
func aliasCount(s *Server) (aliases, resident int) {
	s.cache.mu.Lock()
	defer s.cache.mu.Unlock()
	return len(s.cache.aliases), s.cache.lru.Len()
}

// mustAnswer posts body and fails the test unless it answers 200 with
// the given X-Cache.
func mustAnswer(t *testing.T, s *Server, path, body string, want outcome) []byte {
	t.Helper()
	rec := post(s, path, body)
	if rec.Code != 200 || rec.Header().Get("X-Cache") != string(want) {
		t.Fatalf("%s %s: code %d, X-Cache %q, want 200 %s: %s", path, body, rec.Code, rec.Header().Get("X-Cache"), want, rec.Body)
	}
	return rec.Body.Bytes()
}

const aliasBody = `{"machine":"laptop","topology":{"nodes":2,"ppn":2},"collective":"bcast","sizes":[8]}`

// TestAliasRespelledBodyHits: another spelling of a resident query
// (stack form, reordered fields, extra whitespace) still hits through
// the fingerprint with a byte-identical body, and then its own bytes
// take the entry's one alias over from the spelling before.
func TestAliasRespelledBodyHits(t *testing.T) {
	s := newAliasServer(t, Config{})
	want := mustAnswer(t, s, "/v1/run", aliasBody, lead)
	prev := aliasBody
	for _, body := range []string{
		`{"engine":"goroutine","machine":"laptop","collective":"bcast","sizes":[8],
		  "topology":{"per_leaf":2,"levels":[{"name":"node","arity":2}]}}`,
		`{"sizes":[8],"collective":"bcast","topology":{"ppn":2,"nodes":2},"machine":"laptop"}`,
		" " + strings.ReplaceAll(aliasBody, ",", " ,\n\t"),
	} {
		if !aliased(s, prev, false) {
			t.Fatalf("%s is not aliased after its answer", prev)
		}
		for range 2 {
			if got := mustAnswer(t, s, "/v1/run", body, hit); !bytes.Equal(got, want) {
				t.Fatalf("%s answered\n%s\nwant\n%s", body, got, want)
			}
			if !aliased(s, body, false) || aliased(s, prev, false) {
				t.Fatalf("after %s the alias did not move to it from %s", body, prev)
			}
		}
		prev = body
	}
	if a, n := aliasCount(s); a != 1 || n != 1 {
		t.Fatalf("%d aliases over %d resident entries, want 1 and 1", a, n)
	}
}

// TestAliasOnePerEntry: a hundred spellings of one query leave one
// alias, and the alias count never exceeds the resident count.
func TestAliasOnePerEntry(t *testing.T) {
	s := newAliasServer(t, Config{})
	mustAnswer(t, s, "/v1/run", aliasBody, lead)
	for i := 1; i < 100; i++ {
		mustAnswer(t, s, "/v1/run", strings.Repeat(" ", i)+aliasBody, hit)
		if a, n := aliasCount(s); a != 1 || n != 1 {
			t.Fatalf("spelling %d: %d aliases over %d resident entries, want 1 and 1", i, a, n)
		}
	}
	mustAnswer(t, s, "/v1/run", strings.Replace(aliasBody, "bcast", "allgather", 1), lead)
	mustAnswer(t, s, "/v1/price", aliasBody, lead)
	if a, n := aliasCount(s); a != 3 || n != 3 {
		t.Fatalf("%d aliases over %d resident entries, want 3 and 3", a, n)
	}
}

// TestAliasDroppedOnEviction: evicting an entry drops its alias, so the
// next request with those bytes parses again and misses.
func TestAliasDroppedOnEviction(t *testing.T) {
	s := newAliasServer(t, Config{CacheEntries: 1})
	other := strings.Replace(aliasBody, "bcast", "allgather", 1)
	mustAnswer(t, s, "/v1/run", aliasBody, lead)
	mustAnswer(t, s, "/v1/run", aliasBody, hit)
	mustAnswer(t, s, "/v1/run", other, lead)
	if aliased(s, aliasBody, false) {
		t.Fatal("the evicted entry kept its alias")
	}
	if a, n := aliasCount(s); a != 1 || n != 1 {
		t.Fatalf("%d aliases over %d resident entries, want 1 and 1", a, n)
	}
	mustAnswer(t, s, "/v1/run", aliasBody, lead)
}

// TestAliasSkipsErrors: a body that fails to parse (400), one over an
// admission cap (413) and one over the body cap (413) get no alias and
// answer alike when sent again. The over-cap body is a resident body
// plus one byte, so its capped prefix is that body: only the whole body
// may be hashed, and only once it has been read.
func TestAliasSkipsErrors(t *testing.T) {
	s := newAliasServer(t, Config{MaxRanks: 4, MaxBodyBytes: int64(len(aliasBody))})
	mustAnswer(t, s, "/v1/run", aliasBody, lead)
	for _, tc := range []struct {
		body string
		code int
	}{
		{strings.Replace(aliasBody, "bcast", "bcost", 1), 400},
		{strings.Replace(aliasBody, `"ppn":2`, `"ppn":4`, 1), 413},
		{aliasBody + " ", 413},
	} {
		first := post(s, "/v1/run", tc.body)
		again := post(s, "/v1/run", tc.body)
		if first.Code != tc.code || again.Code != tc.code {
			t.Fatalf("%s: codes %d then %d, want %d", tc.body, first.Code, again.Code, tc.code)
		}
		if !bytes.Equal(first.Body.Bytes(), again.Body.Bytes()) {
			t.Fatalf("%s: error bodies differ:\n%s\n%s", tc.body, first.Body, again.Body)
		}
		if aliased(s, tc.body, false) {
			t.Fatalf("%s: a %d body took an alias", tc.body, tc.code)
		}
	}
	if a, n := aliasCount(s); a != 1 || n != 1 {
		t.Fatalf("%d aliases over %d resident entries, want 1 and 1", a, n)
	}
}

// TestAliasKeepsEndpointsApart: the same bytes sent to /v1/run and to
// /v1/price are two aliases of two answers, never one of the other.
func TestAliasKeepsEndpointsApart(t *testing.T) {
	s := newAliasServer(t, Config{})
	run := mustAnswer(t, s, "/v1/run", aliasBody, lead)
	price := mustAnswer(t, s, "/v1/price", aliasBody, lead)
	if bytes.Equal(run, price) {
		t.Fatal("run and price answers are identical")
	}
	for range 2 {
		if got := mustAnswer(t, s, "/v1/run", aliasBody, hit); !bytes.Equal(got, run) {
			t.Fatalf("/v1/run answered\n%s", got)
		}
		if got := mustAnswer(t, s, "/v1/price", aliasBody, hit); !bytes.Equal(got, price) {
			t.Fatalf("/v1/price answered\n%s", got)
		}
	}
}
