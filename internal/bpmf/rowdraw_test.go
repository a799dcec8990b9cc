package bpmf

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"

	"repro/internal/la"
)

// referenceRow is the row draw as it ran before the four-wide
// accumulate, the left-looking factor and the shared back-solve: one
// observation at a time into the precision's lower triangle, the
// row-by-row Cholesky, a forward and a back-solve of the mean, normals
// drawn after them, and a back-solve of the noise down L's columns. The
// conversions round each product on its own on every platform. It
// returns the drawn row, or the error of a non-positive pivot.
func referenceRow(s *sampler, h hyper, other []float64, idx []int32, val []float64) ([]float64, error) {
	k := len(s.mean)
	prec, l := h.lambda.Clone(), la.NewMat(k, k)
	b := append([]float64(nil), h.lmu...)
	for t, j := range idx {
		o := rowOf(other, k, int(j))
		for i, oi := range o {
			b[i] += float64(alphaPrec * val[t] * oi)
			prow := prec.Row(i)[:i+1]
			for c := range prow {
				prow[c] += float64(alphaPrec * oi * o[c])
			}
		}
	}
	for i := 0; i < k; i++ {
		li := l.Row(i)
		for j := 0; j <= i; j++ {
			lj := l.Row(j)
			sum := prec.At(i, j)
			for c := 0; c < j; c++ {
				sum -= float64(li[c] * lj[c])
			}
			if i == j {
				if sum <= 0 {
					return nil, fmt.Errorf("pivot %d = %g", i, sum)
				}
				li[i] = math.Sqrt(sum)
			} else {
				li[j] = sum / lj[j]
			}
		}
	}
	lower := func(y []float64) {
		for i := 0; i < k; i++ {
			sum := y[i]
			for c := 0; c < i; c++ {
				sum -= float64(l.At(i, c) * y[c])
			}
			y[i] = sum / l.At(i, i)
		}
	}
	upperT := func(x []float64) {
		for i := k - 1; i >= 0; i-- {
			sum := x[i]
			for c := i + 1; c < k; c++ {
				sum -= float64(l.At(c, i) * x[c])
			}
			x[i] = sum / l.At(i, i)
		}
	}
	lower(b)
	upperT(b)
	dev := make([]float64, k)
	for i := range dev {
		dev[i] = s.rng.NormFloat64()
	}
	upperT(dev)
	for i := range b {
		b[i] += dev[i]
	}
	return b, nil
}

// rowDrawCase builds a K-dimensional hyperparameter set (an SPD lambda
// whose diagonal is `ridge` above M Mᵀ's), an other side of n rows and
// one row's deg observations, all from one generator.
func rowDrawCase(rng *rand.Rand, k, n, deg int, ridge float64) (hyper, []float64, []int32, []float64) {
	m := make([]float64, k*k)
	for i := range m {
		m[i] = rng.NormFloat64()
	}
	h := hyper{lambda: la.NewMat(k, k), lmu: make([]float64, k)}
	for i := 0; i < k; i++ {
		for j := 0; j < k; j++ {
			sum := 0.0
			for c := 0; c < k; c++ {
				sum += float64(m[i*k+c] * m[j*k+c])
			}
			h.lambda.Set(i, j, sum)
		}
		h.lambda.Set(i, i, h.lambda.At(i, i)+ridge)
		h.lmu[i] = rng.NormFloat64()
	}
	other := make([]float64, n*k)
	for i := range other {
		other[i] = rng.NormFloat64()
	}
	idx, val := make([]int32, deg), make([]float64, deg)
	for t := range idx {
		idx[t], val[t] = int32(rng.IntN(n)), 4*rng.Float64()-2
	}
	return h, other, idx, val
}

// checkRowDraw draws one row with sampleRow on the workspace s and with
// referenceRow from the same stream, and fails unless both succeed with
// the same bits or both reject the precision.
func checkRowDraw(t *testing.T, s *sampler, h hyper, other []float64, idx []int32, val []float64) {
	t.Helper()
	k := len(h.lmu)
	ref := newSampler(k)
	ref.reseed(5, 2, "users", len(idx))
	want, wantErr := referenceRow(ref, h, other, idx, val)
	s.reseed(5, 2, "users", len(idx))
	err := s.sampleRow(h, other, idx, val)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("K=%d degree %d: error %v, reference %v", k, len(idx), err, wantErr)
	}
	if err != nil {
		return
	}
	for i, x := range s.mean {
		if math.Float64bits(x) != math.Float64bits(want[i]) {
			t.Fatalf("K=%d degree %d: element %d = %v, reference %v", k, len(idx), i, x, want[i])
		}
	}
}

// TestRowDrawMatchesReference holds sampleRow to referenceRow bit for
// bit at K = 1, 2, 3, 10 and 17 and degrees 0-13, so the four-wide
// accumulate runs with every remainder, on one workspace reused across
// the draws as runRank reuses it.
func TestRowDrawMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 9))
	for _, k := range []int{1, 2, 3, 10, 17} {
		s := newSampler(k)
		for deg := 0; deg <= 13; deg++ {
			h, other, idx, val := rowDrawCase(rng, k, 40, deg, 0.5)
			checkRowDraw(t, s, h, other, idx, val)
		}
	}
}

// FuzzRowDrawMatchesReference holds sampleRow to referenceRow on cases
// the fuzzer seeds: K up to 24, degree up to 40 over an other side of
// up to 64 rows, and a ridge that can leave lambda indefinite, so that
// both must then reject it.
func FuzzRowDrawMatchesReference(f *testing.F) {
	f.Add(uint8(10), uint8(4), uint8(40), uint64(1), int8(4))
	f.Add(uint8(3), uint8(7), uint8(5), uint64(2), int8(-3))
	f.Add(uint8(17), uint8(13), uint8(64), uint64(3), int8(0))
	f.Fuzz(func(t *testing.T, kb, degb, nb uint8, seed uint64, ridge int8) {
		k, deg, n := 1+int(kb)%24, int(degb)%41, 1+int(nb)%64
		rng := rand.New(rand.NewPCG(seed, uint64(kb)<<16|uint64(degb)<<8|uint64(nb)))
		h, other, idx, val := rowDrawCase(rng, k, n, deg, float64(ridge)/8)
		checkRowDraw(t, newSampler(k), h, other, idx, val)
	})
}

// BenchmarkRowDraw times one row draw at fig-apps' K = 10, as runRank
// makes it (reseed, then sampleRow on the rank's workspace), at degree
// 4 (fig-apps' mean) and 20.
func BenchmarkRowDraw(b *testing.B) {
	for _, deg := range []int{4, 20} {
		b.Run(fmt.Sprintf("degree=%d", deg), func(b *testing.B) {
			const k = 10
			h, other, idx, val := rowDrawCase(rand.New(rand.NewPCG(1, 2)), k, 240, deg, 1)
			s := newSampler(k)
			b.ReportAllocs()
			for i := 0; b.Loop(); i++ {
				s.reseed(1, 0, "users", i)
				if err := s.sampleRow(h, other, idx, val); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
