// Package la provides the dense linear-algebra kernels the application
// benchmarks need (SUMMA's block multiply; BPMF's Cholesky-based
// multivariate-normal sampling), replacing the Eigen library the paper's
// BPMF code links against. Matrices are small and dense, stored
// row-major.
package la

import (
	"errors"
	"fmt"
	"math"
)

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols
}

// NewMat allocates a zero matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("la: NewMat(%d, %d)", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view of row i (shared storage).
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// T returns the transpose as a new matrix.
func (m *Mat) T() *Mat {
	t := NewMat(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// Scale multiplies every element by s in place and returns m.
func (m *Mat) Scale(s float64) *Mat {
	for i := range m.Data {
		m.Data[i] *= s
	}
	return m
}

// gemmKC is how many k steps of a 4-column strip of B Gemm copies into
// its stack buffer at once (2 KiB).
const gemmKC = 64

// Gemm computes C += A * B with exactly the roundings of the naive
// loop: every c[i][j] starts from its own value and adds a[i][k]*b[k][j]
// for k = 0, 1, ... in order, one product at a time, so zeros, signed
// zeros, infinities and NaNs come out as IEEE arithmetic gives them.
// The kernel copies a 4-column strip of B, gemmKC rows at a time, into
// one contiguous stack buffer and runs every pair of A rows over it,
// holding the 2 x 4 tile of C in registers across the strip's k range;
// a trailing odd row and the columns past the last multiple of four take
// the same sums one element at a time. It allocates nothing. Returns an
// error on dimension mismatch.
func Gemm(c, a, b *Mat) error {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		return fmt.Errorf("la: Gemm shapes %dx%d * %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols)
	}
	m, n, kk := a.Rows, b.Cols, a.Cols
	bd := b.Data
	var strip [4 * gemmKC]float64
	for k0 := 0; k0 < kk; k0 += gemmKC {
		k1 := min(k0+gemmKC, kk)
		p := strip[:4*(k1-k0)]
		j := 0
		for ; j+4 <= n; j += 4 {
			for q, off := 0, k0*n+j; q < len(p); q, off = q+4, off+n {
				d, s := p[q:q+4:q+4], bd[off:off+4:off+4]
				d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
			}
			i := 0
			for ; i+2 <= m; i += 2 {
				a0, a1 := a.Row(i)[k0:k1], a.Row(i + 1)[k0:k1]
				c0, c1 := c.Row(i)[j:j+4:j+4], c.Row(i + 1)[j:j+4:j+4]
				c00, c01, c02, c03 := c0[0], c0[1], c0[2], c0[3]
				c10, c11, c12, c13 := c1[0], c1[1], c1[2], c1[3]
				for k, x := range a0 {
					y := a1[k]
					b4 := p[4*k : 4*k+4 : 4*k+4]
					b0 := b4[0]
					c00 += x * b0
					c10 += y * b0
					b1 := b4[1]
					c01 += x * b1
					c11 += y * b1
					b2 := b4[2]
					c02 += x * b2
					c12 += y * b2
					b3 := b4[3]
					c03 += x * b3
					c13 += y * b3
				}
				c0[0], c0[1], c0[2], c0[3] = c00, c01, c02, c03
				c1[0], c1[1], c1[2], c1[3] = c10, c11, c12, c13
			}
			if i < m {
				a0, c0 := a.Row(i)[k0:k1], c.Row(i)[j:j+4]
				for q := range c0 {
					s := c0[q]
					for k, x := range a0 {
						s += x * p[4*k+q]
					}
					c0[q] = s
				}
			}
		}
		for ; j < n; j++ {
			for i := 0; i < m; i++ {
				a0, s := a.Row(i)[k0:k1], c.At(i, j)
				for k, x := range a0 {
					s += x * bd[(k0+k)*n+j]
				}
				c.Set(i, j, s)
			}
		}
	}
	return nil
}

// GemmFlops returns the flop count of a gemm of the given shape
// (2*m*n*k), used to charge virtual compute time.
func GemmFlops(m, n, k int) float64 { return 2 * float64(m) * float64(n) * float64(k) }

// MulVec computes y = A x.
func MulVec(a *Mat, x []float64) ([]float64, error) {
	if a.Cols != len(x) {
		return nil, fmt.Errorf("la: MulVec %dx%d with %d-vector", a.Rows, a.Cols, len(x))
	}
	y := make([]float64, a.Rows)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y, nil
}

// SyrkUpper computes C += x xᵀ for a vector x (rank-1 update, full
// storage but symmetric content).
func SyrkUpper(c *Mat, x []float64) error {
	if c.Rows != len(x) || c.Cols != len(x) {
		return fmt.Errorf("la: Syrk %dx%d with %d-vector", c.Rows, c.Cols, len(x))
	}
	for i, xi := range x {
		row := c.Row(i)[:len(x)]
		for j, xj := range x {
			row[j] += xi * xj
		}
	}
	return nil
}

// ErrNotSPD is returned when a Cholesky factorization meets a
// non-positive pivot.
var ErrNotSPD = errors.New("la: matrix not symmetric positive definite")

// Cholesky factors SPD A = L Lᵀ, returning lower-triangular L.
func Cholesky(a *Mat) (*Mat, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("la: Cholesky of %dx%d", a.Rows, a.Cols)
	}
	l := NewMat(a.Rows, a.Rows)
	if err := CholeskyInto(l, a); err != nil {
		return nil, err
	}
	return l, nil
}

// CholeskyInto is Cholesky into a caller-owned l of a's shape, whose
// previous contents are overwritten (the strict upper triangle with
// zeros). l must not alias a.
func CholeskyInto(l, a *Mat) error {
	n := a.Rows
	if a.Cols != n || l.Rows != n || l.Cols != n {
		return fmt.Errorf("la: Cholesky of %dx%d into %dx%d", a.Rows, a.Cols, l.Rows, l.Cols)
	}
	for i := 0; i < n; i++ {
		li := l.Row(i)
		for j := 0; j <= i; j++ {
			lj := l.Row(j)
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			if i == j {
				if s <= 0 {
					return fmt.Errorf("%w (pivot %d = %g)", ErrNotSPD, i, s)
				}
				li[i] = math.Sqrt(s)
			} else {
				li[j] = s / lj[j]
			}
		}
		clear(li[i+1:])
	}
	return nil
}

// SolveLowerInto solves L y = b for lower-triangular L into y, which
// may be b itself.
func SolveLowerInto(y []float64, l *Mat, b []float64) error {
	n := l.Rows
	if len(b) != n || len(y) != n {
		return fmt.Errorf("la: SolveLower %dx%d with %d-vector into %d", n, l.Cols, len(b), len(y))
	}
	for i := 0; i < n; i++ {
		li := l.Row(i)
		s := b[i]
		for k := 0; k < i; k++ {
			s -= li[k] * y[k]
		}
		d := li[i]
		if d == 0 {
			return fmt.Errorf("la: singular triangular factor at %d", i)
		}
		y[i] = s / d
	}
	return nil
}

// SolveUpperTInto solves Lᵀ x = y given lower-triangular L into x,
// which may be y itself.
func SolveUpperTInto(x []float64, l *Mat, y []float64) error {
	n := l.Rows
	if len(y) != n || len(x) != n {
		return fmt.Errorf("la: SolveUpperT %dx%d with %d-vector into %d", n, l.Cols, len(y), len(x))
	}
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		d := l.At(i, i)
		if d == 0 {
			return fmt.Errorf("la: singular triangular factor at %d", i)
		}
		x[i] = s / d
	}
	return nil
}

// InvSPD inverts an SPD matrix via Cholesky (column-by-column solves).
func InvSPD(a *Mat) (*Mat, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	inv := NewMat(n, n)
	x := make([]float64, n)
	for j := 0; j < n; j++ {
		clear(x)
		x[j] = 1
		if err := SolveLowerInto(x, l, x); err != nil {
			return nil, err
		}
		if err := SolveUpperTInto(x, l, x); err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, x[i])
		}
	}
	return inv, nil
}

// Source is the generator the samplers draw from; *rand.Rand of
// math/rand and of math/rand/v2 both are one.
type Source interface {
	NormFloat64() float64
	Float64() float64
}

// SampleMVN draws x ~ N(mean, cov) using the Cholesky factor of cov:
// x = mean + L z with z standard normal.
func SampleMVN(mean []float64, cov *Mat, rng Source) ([]float64, error) {
	l, err := Cholesky(cov)
	if err != nil {
		return nil, err
	}
	n := len(mean)
	z := make([]float64, n)
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	x := make([]float64, n)
	for i := 0; i < n; i++ {
		s := mean[i]
		for k := 0; k <= i; k++ {
			s += l.At(i, k) * z[k]
		}
		x[i] = s
	}
	return x, nil
}

// chiSquare draws from the chi-squared distribution with k >= 1 degrees
// of freedom as 2*Gamma(k/2) by Marsaglia and Tsang's method: a normal
// and a uniform per attempt, accepted more than 95% of the time, where
// summing k squared normals costs k draws (BPMF's k is the row count).
func chiSquare(k int, rng Source) float64 {
	alpha := float64(k) / 2
	boost := 1.0
	if alpha < 1 {
		// Gamma(a) = Gamma(a+1) * U^(1/a).
		boost = math.Pow(rng.Float64(), 1/alpha)
		alpha++
	}
	d := alpha - 1.0/3
	c := 1 / math.Sqrt(9*d)
	for {
		x := rng.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := rng.Float64()
		if x2 := x * x; u < 1-0.0331*x2*x2 || math.Log(u) < 0.5*x2+d*(1-v+math.Log(v)) {
			return 2 * d * v * boost
		}
	}
}

// SampleWishart draws W ~ Wishart(scale, dof) with the Bartlett
// decomposition: W = L A Aᵀ Lᵀ where scale = L Lᵀ, A lower with
// chi-distributed diagonal and standard-normal subdiagonal.
func SampleWishart(scale *Mat, dof int, rng Source) (*Mat, error) {
	n := scale.Rows
	if dof < n {
		return nil, fmt.Errorf("la: Wishart dof %d < dim %d", dof, n)
	}
	l, err := Cholesky(scale)
	if err != nil {
		return nil, err
	}
	a := NewMat(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, math.Sqrt(chiSquare(dof-i, rng)))
		for j := 0; j < i; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	la_ := NewMat(n, n)
	if err := Gemm(la_, l, a); err != nil {
		return nil, err
	}
	w := NewMat(n, n)
	if err := Gemm(w, la_, la_.T()); err != nil {
		return nil, err
	}
	return w, nil
}
