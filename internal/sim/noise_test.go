package sim

import (
	"math"
	"slices"
	"testing"
)

func TestNoiseU01Deterministic(t *testing.T) {
	a := NoiseU01(42, 3, 17, HopNet)
	for i := 0; i < 100; i++ {
		if b := NoiseU01(42, 3, 17, HopNet); b != a {
			t.Fatalf("draw %d: %v != %v", i, b, a)
		}
	}
	// Every coordinate must matter.
	if NoiseU01(43, 3, 17, HopNet) == a {
		t.Fatal("seed does not affect the draw")
	}
	if NoiseU01(42, 4, 17, HopNet) == a {
		t.Fatal("rank does not affect the draw")
	}
	if NoiseU01(42, 3, 18, HopNet) == a {
		t.Fatal("op index does not affect the draw")
	}
	if NoiseU01(42, 3, 17, HopShm) == a {
		t.Fatal("hop class does not affect the draw")
	}
}

func TestNoiseU01Distribution(t *testing.T) {
	const n = 20000
	var sum float64
	for op := uint64(0); op < n; op++ {
		u := NoiseU01(7, 0, op, HopSelf)
		if u < 0 || u >= 1 {
			t.Fatalf("draw %d outside [0,1): %v", op, u)
		}
		sum += u
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("mean %v too far from 0.5", mean)
	}
}

func TestNoiseValidate(t *testing.T) {
	ok := &Noise{Seed: 1, Jitter: 0.1, Stragglers: []int{2}, StragglerFactor: 3,
		Congestion: map[HopClass]float64{HopNet: 1.5},
		Failures:   []Failure{{Rank: 1, At: Microsecond}}}
	if err := ok.Validate(4); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []*Noise{
		{Jitter: -0.5},
		{Jitter: 100},
		{Stragglers: []int{0}}, // factor missing
		{Stragglers: []int{0}, StragglerFactor: 0.5},    // factor < 1
		{Stragglers: []int{9}, StragglerFactor: 2},      // rank out of range
		{Congestion: map[HopClass]float64{HopNet: 0.5}}, // speedup, not congestion
		{Congestion: map[HopClass]float64{99: 2}},
		{Failures: []Failure{{Rank: -1}}},
		{Failures: []Failure{{Rank: 0, At: -5}}},
	}
	for i, n := range bad {
		if err := n.Validate(4); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	var nilNoise *Noise
	if err := nilNoise.Validate(4); err != nil {
		t.Fatalf("nil noise rejected: %v", err)
	}
}

func TestNoiseBreaksSymmetry(t *testing.T) {
	cases := []struct {
		n    *Noise
		want bool
	}{
		{nil, false},
		{&Noise{}, false},
		{&Noise{Congestion: map[HopClass]float64{HopNet: 2}}, false}, // uniform: fold-safe
		{&Noise{Jitter: 0.1}, true},
		{&Noise{Stragglers: []int{0}, StragglerFactor: 2}, true},
		{&Noise{Failures: []Failure{{Rank: 0, At: 0}}}, true},
	}
	for i, c := range cases {
		if got := c.n.BreaksSymmetry(); got != c.want {
			t.Errorf("case %d: BreaksSymmetry = %v, want %v", i, got, c.want)
		}
	}
	if (&Noise{Congestion: map[HopClass]float64{HopNet: 2}}).Enabled() != true {
		t.Fatal("congestion-only config should still be Enabled")
	}
	if (&Noise{}).Enabled() {
		t.Fatal("zero config should not be Enabled")
	}
}

func TestNoiseClone(t *testing.T) {
	n := &Noise{Seed: 9, Stragglers: []int{3, 1, 3, 2},
		StragglerFactor: 2,
		Congestion:      map[HopClass]float64{HopNet: 1, HopShm: 2},
		Failures:        []Failure{{Rank: 2, At: 200}, {Rank: 0, At: 5}, {Rank: 2, At: 10}}}
	c := n.Clone()
	if got := c.Stragglers; len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("stragglers not sorted/deduped: %v", got)
	}
	// The simulator ignores a factor of 1 and all but a rank's earliest
	// deadline, so the canonical copy drops them.
	if len(c.Congestion) != 1 || c.Congestion[HopShm] != 2 {
		t.Fatalf("congestion factor 1 kept: %v", c.Congestion)
	}
	if want := []Failure{{Rank: 0, At: 5}, {Rank: 2, At: 10}}; !slices.Equal(c.Failures, want) {
		t.Fatalf("failures = %v, want sorted with the earliest deadline per rank %v", c.Failures, want)
	}
	if c := (&Noise{Congestion: map[HopClass]float64{HopNet: 1}}).Clone(); c.Congestion != nil {
		t.Fatalf("all-unit congestion kept as %v, want nil", c.Congestion)
	}
	// Deep copy: mutating the clone must not touch the original.
	c.Stragglers[0] = 99
	c.Failures[0].At = 99
	if n.Stragglers[0] == 99 || n.Failures[1].At == 99 {
		t.Fatal("clone shares a slice with the original")
	}
}

func TestHopClassText(t *testing.T) {
	for c := HopSelf; c <= HopGroup; c++ {
		text, err := c.MarshalText()
		if err != nil || string(text) != c.String() {
			t.Fatalf("%v.MarshalText() = %q, %v", c, text, err)
		}
		var got HopClass
		if err := got.UnmarshalText(text); err != nil || got != c {
			t.Fatalf("UnmarshalText(%q) = %v, %v", text, got, err)
		}
	}
	var h HopClass
	if err := h.UnmarshalText([]byte("warp")); err == nil {
		t.Fatal("unknown class accepted")
	}
}
