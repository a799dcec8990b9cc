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

// gemmKC is how many k rows of an 8- or 4-column strip of B Gemm packs
// into its stack buffer at once (4 KiB at the wider strip).
const gemmKC = 64

// Gemm computes C += A * B with exactly the roundings of the naive
// loop: every c[i][j] starts from its own value and adds a[i][k]*b[k][j]
// for k = 0, 1, ... in order, one product at a time, each product and
// each sum rounded on its own (never fused), so zeros, signed zeros,
// infinities and NaNs come out as IEEE arithmetic gives them, on every
// platform. c must not share storage with a or b: the kernels hold a
// tile of C in registers across gemmKC steps of k.
//
// On amd64 with AVX, the kernel packs an 8-column strip of B, gemmKC
// rows at a time, into one contiguous stack buffer and runs every group
// of four A rows over it with an assembly 4 x 8 tile (multiply, then
// add; no FMA). Elsewhere, and for the rows and columns that tile
// leaves, the Go kernel packs 4-column strips and runs pairs of A rows
// as a 2 x 4 tile; a trailing odd row and the columns past the last
// multiple of four take the same sums one element at a time. It
// allocates nothing. Returns an error on dimension mismatch.
func Gemm(c, a, b *Mat) error {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		return fmt.Errorf("la: Gemm shapes %dx%d * %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols)
	}
	m, n, kk := a.Rows, b.Cols, a.Cols
	var strip [8 * gemmKC]float64
	for k0 := 0; k0 < kk; k0 += gemmKC {
		k1 := min(k0+gemmKC, kk)
		j := 0
		if gemmAVX {
			for ; j+8 <= n; j += 8 {
				gemmTiles(c, a, gemmPack(strip[:8*(k1-k0)], b.Data[k0*n+j:], n, 8), k0, k1, j)
			}
		}
		for ; j+4 <= n; j += 4 {
			gemmRows(c, a, gemmPack(strip[:4*(k1-k0)], b.Data[k0*n+j:], n, 4), 4, 0, k0, k1, j)
		}
		for ; j < n; j++ {
			for i := 0; i < m; i++ {
				a0, s := a.Row(i)[k0:k1], c.At(i, j)
				for k, x := range a0 {
					s += float64(x * b.Data[(k0+k)*n+j])
				}
				c.Set(i, j, s)
			}
		}
	}
	return nil
}

// gemmPack copies the first w columns of len(p)/w rows of B, which start
// ldb elements apart at b[0], into p one row after the other.
func gemmPack(p, b []float64, ldb, w int) []float64 {
	for q, off := 0, 0; q < len(p); q, off = q+w, off+ldb {
		copy(p[q:q+w], b[off:off+w])
	}
	return p
}

// gemmTiles adds A's columns k0..k1 times the 8 columns of B packed at
// p (row k at p[8*k:8*k+8]) to columns j..j+7 of C: the AVX tile takes
// every group of four rows, the Go kernel the rows left over.
func gemmTiles(c, a *Mat, p []float64, k0, k1, j int) {
	m, n, kk, kc := a.Rows, c.Cols, a.Cols, k1-k0
	i := 0
	for ; i+4 <= m; i += 4 {
		ai, ci := i*kk+k0, i*n+j
		// The last element of A, the strip and C the tile touches: a bad
		// shape panics here, not in assembly.
		_, _, _ = a.Data[ai+3*kk+kc-1], p[8*kc-1], c.Data[ci+3*n+7]
		gemm4x8(kc, &a.Data[ai], kk, &p[0], &c.Data[ci], n)
	}
	gemmRows(c, a, p, 8, i, k0, k1, j)
	gemmRows(c, a, p[4:], 8, i, k0, k1, j+4)
}

// gemmRows is Gemm's Go kernel: it adds A's columns k0..k1 times four
// packed columns of B (row k at p[w*k:w*k+4]) to columns j..j+3 of C's
// rows from i0 on, as 2 x 4 tiles held in locals across the k range and
// a trailing odd row one element at a time. Every product is rounded
// before its sum (the float64 conversions), which keeps compilers that
// fuse a multiply and an add, arm64's for one, from doing so here.
func gemmRows(c, a *Mat, p []float64, w, i0, k0, k1, j int) {
	m := a.Rows
	i := i0
	for ; i+2 <= m; i += 2 {
		a0, a1 := a.Row(i)[k0:k1], a.Row(i + 1)[k0:k1]
		c0, c1 := c.Row(i)[j:j+4:j+4], c.Row(i + 1)[j:j+4:j+4]
		c00, c01, c02, c03 := c0[0], c0[1], c0[2], c0[3]
		c10, c11, c12, c13 := c1[0], c1[1], c1[2], c1[3]
		q := 0
		for k, x := range a0 {
			y := a1[k]
			b4 := p[q : q+4 : q+4]
			q += w
			b0 := b4[0]
			c00 += float64(x * b0)
			c10 += float64(y * b0)
			b1 := b4[1]
			c01 += float64(x * b1)
			c11 += float64(y * b1)
			b2 := b4[2]
			c02 += float64(x * b2)
			c12 += float64(y * b2)
			b3 := b4[3]
			c03 += float64(x * b3)
			c13 += float64(y * b3)
		}
		c0[0], c0[1], c0[2], c0[3] = c00, c01, c02, c03
		c1[0], c1[1], c1[2], c1[3] = c10, c11, c12, c13
	}
	if i < m {
		a0, c0 := a.Row(i)[k0:k1], c.Row(i)[j:j+4]
		for q := range c0 {
			s := c0[q]
			for k, x := range a0 {
				s += float64(x * p[w*k+q])
			}
			c0[q] = s
		}
	}
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
