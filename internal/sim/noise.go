package sim

import (
	"cmp"
	"fmt"
	"slices"
)

// Noise configures the deterministic noise-and-failure layer of a
// simulated world. The clean LogGP model prices every operation
// identically on every rank; real machines do not behave that way —
// they have OS jitter, straggler nodes, congested links and outright
// node failures. Noise injects those effects without giving up
// reproducibility: every perturbation is drawn from the counter-based
// NoiseU01 PRNG keyed by (seed, rank, opIndex, hopClass), never by
// wall clock or goroutine scheduling order, so a given seed produces
// bit-identical virtual times on the goroutine and discrete-event
// engines and across warm/pooled world reuse.
//
// The zero value (and a nil *Noise) means a perfectly clean world. The
// JSON form is the noise block of a spec.Query.
type Noise struct {
	// Seed keys every draw. Two worlds with equal Noise configs and
	// equal seeds are bit-identical; different seeds diverge.
	Seed int64 `json:"seed,omitempty"`

	// Jitter is the per-operation noise amplitude: each compute span
	// and each transfer is stretched by a factor drawn uniformly from
	// [1, 1+Jitter). Zero disables jitter; at most 16.
	Jitter float64 `json:"jitter,omitempty"`

	// Stragglers lists ranks whose compute runs StragglerFactor times
	// slower (a persistently slow node, as opposed to Jitter's
	// transient noise).
	Stragglers []int `json:"stragglers,omitempty"`

	// StragglerFactor is the compute slowdown applied to straggler
	// ranks, in [1, 1024]; required when Stragglers is non-empty.
	StragglerFactor float64 `json:"straggler_factor,omitempty"`

	// Congestion multiplies transfer costs per hop class (e.g. 1.5
	// on HopNet models a persistently congested interconnect), keyed
	// in JSON by the class name. Values lie in [1, 1024]; a missing
	// class (or 1.0) is unscaled. Congestion applies uniformly to every
	// rank, so unlike the other knobs it preserves rank symmetry.
	Congestion map[HopClass]float64 `json:"congestion,omitempty"`

	// Failures schedules rank deaths: each listed rank permanently
	// stops executing at the first operation boundary at or after its
	// virtual-time deadline, and peers observe its death through the
	// mpi layer's fault machinery (ErrRankFailed, Shrink, Agree). A
	// rank listed twice dies at its earliest deadline.
	Failures []Failure `json:"failures,omitempty"`
}

// Failure schedules the death of one rank at a virtual-time deadline.
type Failure struct {
	// Rank is the world rank that dies.
	Rank int `json:"rank"`
	// At is the virtual time at or after which the rank stops. The
	// rank dies at its first operation boundary with clock >= At.
	At Time `json:"at_ps"`
}

// Validate checks the config against a world of the given size.
func (n *Noise) Validate(size int) error {
	if n == nil {
		return nil
	}
	if n.Jitter < 0 || n.Jitter > 16 {
		return fmt.Errorf("noise: jitter %v outside [0, 16]", n.Jitter)
	}
	if len(n.Stragglers) > 0 && n.StragglerFactor < 1 {
		return fmt.Errorf("noise: straggler factor %v < 1 with %d straggler ranks",
			n.StragglerFactor, len(n.Stragglers))
	}
	if n.StragglerFactor != 0 && (n.StragglerFactor < 1 || n.StragglerFactor > 1024) {
		return fmt.Errorf("noise: straggler factor %v outside [1, 1024]", n.StragglerFactor)
	}
	for _, r := range n.Stragglers {
		if r < 0 || r >= size {
			return fmt.Errorf("noise: straggler rank %d outside world of %d ranks", r, size)
		}
	}
	for c, f := range n.Congestion {
		if c < HopSelf || c > HopGroup {
			return fmt.Errorf("noise: unknown congestion hop class %d", int(c))
		}
		if f < 1 || f > 1024 {
			return fmt.Errorf("noise: congestion factor %v for %s outside [1, 1024]", f, c)
		}
	}
	for _, fl := range n.Failures {
		if fl.Rank < 0 || fl.Rank >= size {
			return fmt.Errorf("noise: failure rank %d outside world of %d ranks", fl.Rank, size)
		}
		if fl.At < 0 {
			return fmt.Errorf("noise: failure time %d ps for rank %d is negative", fl.At, fl.Rank)
		}
	}
	return nil
}

// BreaksSymmetry reports whether this config makes ranks behave
// differently from one another, which invalidates rank-symmetry
// folding: jitter draws differ per rank, stragglers and failures name
// specific ranks. Pure congestion scales every rank identically and
// stays fold-safe.
func (n *Noise) BreaksSymmetry() bool {
	if n == nil {
		return false
	}
	return n.Jitter > 0 || len(n.Stragglers) > 0 || len(n.Failures) > 0
}

// Enabled reports whether the config perturbs anything at all.
func (n *Noise) Enabled() bool {
	if n == nil {
		return false
	}
	return n.Jitter > 0 || len(n.Stragglers) > 0 || len(n.Failures) > 0 || len(n.Congestion) > 0
}

// Clone returns a deep copy in canonical form, so that semantically
// equal configs compare equal field-by-field: Stragglers sorted and
// deduplicated, congestion factors of exactly 1 dropped, and Failures
// sorted by rank with only each rank's earliest deadline kept.
func (n *Noise) Clone() *Noise {
	if n == nil {
		return nil
	}
	c := &Noise{
		Seed:            n.Seed,
		Jitter:          n.Jitter,
		StragglerFactor: n.StragglerFactor,
	}
	if len(n.Stragglers) > 0 {
		c.Stragglers = slices.Compact(slices.Sorted(slices.Values(n.Stragglers)))
	}
	for k, v := range n.Congestion {
		if v == 1 {
			continue
		}
		if c.Congestion == nil {
			c.Congestion = make(map[HopClass]float64, len(n.Congestion))
		}
		c.Congestion[k] = v
	}
	if len(n.Failures) > 0 {
		c.Failures = slices.SortedFunc(slices.Values(n.Failures), func(a, b Failure) int {
			return cmp.Or(cmp.Compare(a.Rank, b.Rank), cmp.Compare(a.At, b.At))
		})
		c.Failures = slices.CompactFunc(c.Failures, func(a, b Failure) bool { return a.Rank == b.Rank })
	}
	return c
}

// mix64 is the splitmix64 finalizer: a cheap, high-quality bijective
// mixer over uint64 (Steele, Lea & Flood, OOPSLA 2014). Feeding it a
// running hash of the draw coordinates gives an independent stream
// per (seed, rank, op, class) tuple with no sequential state, which
// is what makes draws independent of execution order.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NoiseU01 draws a uniform float64 in [0, 1) keyed purely by the
// coordinates (seed, rank, op, class). The draw is a pure function —
// no hidden state, no wall clock — so any execution order (goroutine
// engine, event engine, warm-world reruns) observes the same value
// for the same coordinates. The top 53 bits of the mixed hash map
// exactly onto the float64 mantissa, so the conversion is itself
// deterministic across platforms.
func NoiseU01(seed int64, rank int, op uint64, class HopClass) float64 {
	h := mix64(uint64(seed))
	h = mix64(h ^ uint64(rank))
	h = mix64(h ^ op)
	h = mix64(h ^ uint64(class))
	return float64(h>>11) / (1 << 53)
}
