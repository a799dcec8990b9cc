package spec_test

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"

	"repro/internal/spec"
)

// noisyQuery builds a query exercising every noise dimension at once:
// jitter, stragglers, per-hop congestion, and a scheduled failure whose
// deadline lies far beyond the run's makespan (so the delivery machinery
// is armed but the collectives complete). seed and engine vary per call.
func noisyQuery(t *testing.T, engine string, seed int64) *spec.Query {
	t.Helper()
	raw := `{"machine":"laptop","topology":{"nodes":2,"ppn":4},
		"collective":"allreduce","sizes":[8,4096,65536],"iters":2,
		"engine":"` + engine + `",
		"noise":{"seed":` + strconv.FormatInt(seed, 10) + `,"jitter":0.3,
			"stragglers":[1,5],"straggler_factor":4,
			"congestion":{"net":2,"shm":1.5},
			"failures":[{"rank":7,"at_ps":1000000000000000}]}}`
	q, err := spec.Parse([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	return q
}

// TestNoiseGoldenDeterminism is the PR's golden suite: one seed, every
// execution path — both engines, per-point referee worlds, the warm
// within-query path, and a pooled world run twice (second pass warm) —
// must produce bit-identical virtual times; a different seed must not,
// and the referee must name the path that carries it.
func TestNoiseGoldenDeterminism(t *testing.T) {
	pool := spec.NewWorldPool(spec.PoolConfig{MaxIdle: -1})
	defer pool.Close()
	pooled := &spec.Exec{Pool: pool}
	q := noisyQuery(t, "goroutine", 3)
	ref := spec.Path{Name: "goroutine/perpoint", Exec: &spec.Exec{PerPointWorlds: true}}
	_, err := spec.Referee(context.Background(), q, ref,
		spec.Path{Name: "goroutine/warm"},
		spec.Path{Name: "event/perpoint", Engine: "event", Exec: &spec.Exec{PerPointWorlds: true}},
		spec.Path{Name: "event/warm", Engine: "event"},
		spec.Path{Name: "goroutine/pooled", Exec: pooled},
		spec.Path{Name: "goroutine/pooled-2", Exec: pooled})
	if err != nil {
		t.Error(err)
	}
	_, err = spec.Referee(context.Background(), q, ref,
		spec.Path{Name: "goroutine/warm"},
		spec.Path{Name: "seed-4", Edit: func(q *spec.Query) { q.Noise.Seed = 4 }})
	if !errors.Is(err, spec.ErrDiverged) {
		t.Fatalf("seed 3 and seed 4 produced identical ladders — seed is not keying the draws (err = %v)", err)
	}
	for _, want := range []string{"path seed-4 at ", " B: got ", " ps, want ", "reference path goroutine/perpoint"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("divergence error %q does not contain %q", err, want)
		}
	}
}

// TestNoiseFreeFingerprintPinned pins the canonical JSON and fingerprint
// of a representative noise-free query to their pre-noise values: adding
// the noise block to the schema must not move a single byte of the
// canonical form of queries that don't use it, or every cache entry and
// recorded baseline keyed by fingerprint silently invalidates.
func TestNoiseFreeFingerprintPinned(t *testing.T) {
	q, err := spec.Parse([]byte(`{"machine":"hazelhen-cray","topology":{"nodes":4,"ppn":8},
		"collective":"allreduce","sizes":[64,4096],"iters":2,"tuning":{"policy":"cost"}}`))
	if err != nil {
		t.Fatal(err)
	}
	cj, err := q.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	const wantCanon = `{"machine":"hazelhen-cray","topology":{"per_leaf":8,"levels":[{"name":"node","arity":4}]},"collective":"allreduce","sizes":[64,4096],"iters":2,"engine":"goroutine","fold":"auto","tuning":{"policy":"cost"}}`
	if string(cj) != wantCanon {
		t.Errorf("canonical JSON drifted:\n got %s\nwant %s", cj, wantCanon)
	}
	fp, err := q.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	const wantFP = "5ff86377b0c6670a947b1efb02c174b8b104402061e214dabd8ead96ca0e0ef1"
	if fp != wantFP {
		t.Errorf("fingerprint drifted: got %s, want %s", fp, wantFP)
	}
}

// TestNoiseZeroBlockCanonicalizesAway: an explicit noise block that
// configures nothing is the same query as no block at all — identical
// canonical JSON (no "noise" key) and identical fingerprint.
func TestNoiseZeroBlockCanonicalizesAway(t *testing.T) {
	base := `{"machine":"laptop","topology":{"nodes":2,"ppn":2},"collective":"bcast","sizes":[8]`
	bare, err := spec.Parse([]byte(base + `}`))
	if err != nil {
		t.Fatal(err)
	}
	bareFP, err := bare.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	// A congestion factor of exactly 1 scales nothing, so a block of
	// only such entries configures nothing either.
	for _, block := range []string{`{}`, `{"seed":0}`, `{"jitter":0,"congestion":{}}`, `{"congestion":{"net":1}}`} {
		q, err := spec.Parse([]byte(base + `,"noise":` + block + `}`))
		if err != nil {
			t.Fatalf("noise %s: %v", block, err)
		}
		if q.Noise != nil {
			t.Errorf("noise %s: canonical query kept the block: %+v", block, q.Noise)
		}
		cj, err := q.CanonicalJSON()
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(cj, []byte(`"noise"`)) {
			t.Errorf("noise %s: canonical JSON kept the key: %s", block, cj)
		}
		fp, err := q.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp != bareFP {
			t.Errorf("noise %s: fingerprint %s differs from bare %s", block, fp, bareFP)
		}
	}
	// A seeded block, by contrast, must change the fingerprint even
	// though it perturbs nothing else about the query.
	seeded, err := spec.Parse([]byte(base + `,"noise":{"seed":7,"jitter":0.1}}`))
	if err != nil {
		t.Fatal(err)
	}
	seededFP, err := seeded.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if seededFP == bareFP {
		t.Error("seeded noise block did not change the fingerprint")
	}
}

// TestNoiseCanonicalOrdering: stragglers are sorted and deduped and
// failures sorted by rank with only each rank's earliest deadline kept
// (the one the simulator honors), so declaration order and ignored
// entries cannot leak into the fingerprint.
func TestNoiseCanonicalOrdering(t *testing.T) {
	mk := func(noise string) string {
		q, err := spec.Parse([]byte(`{"machine":"laptop","topology":{"nodes":2,"ppn":4},
			"collective":"bcast","sizes":[8],"noise":` + noise + `}`))
		if err != nil {
			t.Fatalf("%s: %v", noise, err)
		}
		fp, err := q.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return fp
	}
	a := mk(`{"stragglers":[5,1,5],"straggler_factor":2,
		"failures":[{"rank":3,"at_ps":200},{"rank":0,"at_ps":100},{"rank":3,"at_ps":50}]}`)
	b := mk(`{"stragglers":[1,5],"straggler_factor":2,
		"failures":[{"rank":0,"at_ps":100},{"rank":3,"at_ps":50},{"rank":3,"at_ps":200}]}`)
	if a != b {
		t.Errorf("declaration order leaked into the fingerprint: %s vs %s", a, b)
	}
	if a, b := mk(`{"failures":[{"rank":3,"at_ps":50},{"rank":3,"at_ps":200}]}`),
		mk(`{"failures":[{"rank":3,"at_ps":50}]}`); a != b {
		t.Errorf("a rank's second deadline leaked into the fingerprint: %s vs %s", a, b)
	}
}

// TestNoiseRejections: malformed noise blocks are refused at Parse with
// an error naming the offending field, never deferred to run time.
func TestNoiseRejections(t *testing.T) {
	cases := map[string]string{
		"jitter above cap":       `{"jitter":17}`,
		"negative jitter":        `{"jitter":-0.5}`,
		"stragglers sans factor": `{"stragglers":[1]}`,
		"factor below one":       `{"stragglers":[1],"straggler_factor":0.5}`,
		"straggler out of range": `{"stragglers":[64],"straggler_factor":2}`,
		"unknown hop class":      `{"congestion":{"warp":2}}`,
		"congestion below one":   `{"congestion":{"net":0.5}}`,
		"failure out of range":   `{"failures":[{"rank":-1,"at_ps":100}]}`,
		"negative failure time":  `{"failures":[{"rank":1,"at_ps":-5}]}`,
		"unknown noise field":    `{"seeds":42}`,
	}
	for name, block := range cases {
		_, err := spec.Parse([]byte(`{"machine":"laptop","topology":{"nodes":2,"ppn":4},
			"collective":"bcast","sizes":[8],"noise":` + block + `}`))
		if err == nil {
			t.Errorf("%s: accepted %s", name, block)
		} else if !strings.Contains(err.Error(), "noise") && !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("%s: error does not identify the noise block: %v", name, err)
		}
	}
}
