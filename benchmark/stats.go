package main

import (
	"math"
	"sort"
)

// minBeyond is the choosing-metrics rule for tail percentiles: a
// percentile is reported only when at least this many samples lie
// beyond it.
const minBeyond = 10

// tailIndex returns the 0-based index, in a sorted sample of n values,
// of the highest percentile not above want that still has minBeyond
// samples beyond it (nearest-rank), and that percentile. When the
// sample is too small for the rule the median is returned, so a short
// run reads its tail as its median instead of as its maximum.
func tailIndex(n int, want float64) (idx int, pct float64) {
	if n == 0 {
		return 0, 0
	}
	idx = int(math.Ceil(want*float64(n))) - 1
	if limit := n - 1 - minBeyond; idx > limit {
		idx = limit
	}
	if median := (n - 1) / 2; idx < median {
		idx = median
	}
	return idx, float64(idx+1) / float64(n)
}

// median returns the middle value of vals (mean of the middle two for
// an even count), as Python's statistics.median does.
func median(vals []float64) float64 {
	s := sortedCopy(vals)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vals exactly as
// Python's statistics.quantiles(vals, n=4) (the exclusive method) does,
// because that is the function the driver sizes spreads with. Fewer
// than two values have no spread: both quartiles are the single value.
func quartiles(vals []float64) (q1, q3 float64) {
	s := sortedCopy(vals)
	n := len(s)
	if n == 0 {
		return math.NaN(), math.NaN()
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// spread is the distance between the quartiles as a share of the
// median — the number a bound is sized from.
func spread(vals []float64) float64 {
	q1, q3 := quartiles(vals)
	return (q3 - q1) / math.Abs(median(vals))
}

func sortedCopy(vals []float64) []float64 {
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s
}

// summary is the median and quartiles of a sample of per-op values,
// the form every per-layer timing is reported in.
type summary struct {
	N      int     `json:"n"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

func summarize(vals []float64) summary {
	q1, q3 := quartiles(vals)
	return summary{N: len(vals), Q1: q1, Median: median(vals), Q3: q3}
}

// verdict is the outcome of comparing one metric between two sets of
// runs.
type verdict string

const (
	improved   verdict = "improved"
	unchanged  verdict = "unchanged"
	unresolved verdict = "unresolved"
	regressed  verdict = "regressed"
)

// comparison is one (workload, metric) row of a compare report.
type comparison struct {
	A, B    summary
	Worse   float64 // (B median - A median) in the worse direction, as a share of A's median
	SpreadA float64 // A's interquartile distance as a share of its median
	Wins    int     // pairs in which B read better than A
	Losses  int     // pairs in which B read worse
	Verdict verdict
}

// compareSets applies the choosing-metrics rules to two sets of runs of
// one metric. a is the parent, b the change; runs are paired by
// position. A gain needs b to win at least nine tenths of the pairs
// (ties count for neither side) and the medians to differ by more than
// the parent's interquartile distance. Otherwise the change is a
// regression when its median is worse than the parent's by more than
// bound (a share of the parent's median), unresolved when the parent's
// own spread is wider than the bound — unless every run of b reads
// better than every run of a — and unchanged when neither.
func compareSets(a, b []float64, higherBetter bool, bound float64) comparison {
	c := comparison{A: summarize(a), B: summarize(b), SpreadA: spread(a)}
	sign := 1.0 // positive diff = b worse
	if higherBetter {
		sign = -1
	}
	base := math.Abs(c.A.Median)
	c.Worse = sign * (c.B.Median - c.A.Median) / base
	pairs := min(len(a), len(b))
	for i := 0; i < pairs; i++ {
		switch d := sign * (b[i] - a[i]); {
		case d < 0:
			c.Wins++
		case d > 0:
			c.Losses++
		}
	}
	iqrA := c.A.Q3 - c.A.Q1
	bAlwaysBetter := len(a) > 0 && len(b) > 0 && allBetter(a, b, sign)
	switch {
	case pairs > 0 && float64(c.Wins) >= 0.9*float64(pairs) && -sign*(c.B.Median-c.A.Median) > iqrA:
		c.Verdict = improved
	case c.Worse > bound:
		c.Verdict = regressed
	case c.SpreadA > bound && !bAlwaysBetter:
		c.Verdict = unresolved
	default:
		c.Verdict = unchanged
	}
	return c
}

// allBetter reports whether every value of b reads better than every
// value of a (sign +1: lower is better).
func allBetter(a, b []float64, sign float64) bool {
	worstB, bestA := math.Inf(-1), math.Inf(1)
	for _, v := range b {
		worstB = math.Max(worstB, sign*v)
	}
	for _, v := range a {
		bestA = math.Min(bestA, sign*v)
	}
	return worstB < bestA
}
