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
	"math/rand"
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

// Add increments element (i, j).
func (m *Mat) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns a view of row i (shared storage).
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Eye returns the n x n identity.
func Eye(n int) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
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

// AddMat accumulates a into m element-wise (in place); dimensions must
// match.
func (m *Mat) AddMat(a *Mat) error {
	if m.Rows != a.Rows || m.Cols != a.Cols {
		return fmt.Errorf("la: AddMat shape mismatch %dx%d vs %dx%d", m.Rows, m.Cols, a.Rows, a.Cols)
	}
	for i := range m.Data {
		m.Data[i] += a.Data[i]
	}
	return nil
}

// Gemm computes C += A * B (naive triple loop with ikj order for cache
// friendliness). Returns an error on dimension mismatch.
func Gemm(c, a, b *Mat) error {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		return fmt.Errorf("la: Gemm shapes %dx%d * %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols)
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k := 0; k < a.Cols; k++ {
			aik := arow[k]
			if aik == 0 {
				continue
			}
			brow := b.Row(k)
			for j := range brow {
				crow[j] += aik * brow[j]
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
	for i := range x {
		for j := range x {
			c.Add(i, j, x[i]*x[j])
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
	n := a.Rows
	l := NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 {
					return nil, fmt.Errorf("%w (pivot %d = %g)", ErrNotSPD, i, s)
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return l, nil
}

// SolveLower solves L y = b for lower-triangular L.
func SolveLower(l *Mat, b []float64) ([]float64, error) {
	n := l.Rows
	if len(b) != n {
		return nil, fmt.Errorf("la: SolveLower %dx%d with %d-vector", n, l.Cols, len(b))
	}
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l.At(i, k) * y[k]
		}
		d := l.At(i, i)
		if d == 0 {
			return nil, fmt.Errorf("la: singular triangular factor at %d", i)
		}
		y[i] = s / d
	}
	return y, nil
}

// SolveUpperT solves Lᵀ x = y given lower-triangular L.
func SolveUpperT(l *Mat, y []float64) ([]float64, error) {
	n := l.Rows
	if len(y) != n {
		return nil, fmt.Errorf("la: SolveUpperT %dx%d with %d-vector", n, l.Cols, len(y))
	}
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for k := i + 1; k < n; k++ {
			s -= l.At(k, i) * x[k]
		}
		d := l.At(i, i)
		if d == 0 {
			return nil, fmt.Errorf("la: singular triangular factor at %d", i)
		}
		x[i] = s / d
	}
	return x, nil
}

// InvSPD inverts an SPD matrix via Cholesky (column-by-column solves).
func InvSPD(a *Mat) (*Mat, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	inv := NewMat(n, n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		for i := range e {
			e[i] = 0
		}
		e[j] = 1
		y, err := SolveLower(l, e)
		if err != nil {
			return nil, err
		}
		x, err := SolveUpperT(l, y)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			inv.Set(i, j, x[i])
		}
	}
	return inv, nil
}

// SampleMVN draws x ~ N(mean, cov) using the Cholesky factor of cov:
// x = mean + L z with z standard normal.
func SampleMVN(mean []float64, cov *Mat, rng *rand.Rand) ([]float64, error) {
	l, err := Cholesky(cov)
	if err != nil {
		return nil, err
	}
	return SampleMVNChol(mean, l, rng), nil
}

// SampleMVNChol draws x = mean + L z for a precomputed Cholesky factor.
func SampleMVNChol(mean []float64, l *Mat, rng *rand.Rand) []float64 {
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
	return x
}

// SampleWishart draws W ~ Wishart(scale, dof) with the Bartlett
// decomposition: W = L A Aᵀ Lᵀ where scale = L Lᵀ, A lower with
// chi-distributed diagonal and standard-normal subdiagonal.
func SampleWishart(scale *Mat, dof int, rng *rand.Rand) (*Mat, error) {
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
		// chi_k draw via sum of squares of k normals (k is small).
		k := dof - i
		s := 0.0
		for t := 0; t < k; t++ {
			z := rng.NormFloat64()
			s += z * z
		}
		a.Set(i, i, math.Sqrt(s))
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
