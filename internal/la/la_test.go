package la

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMatBasics(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(1, 2, 5)
	m.Add(1, 2, 1)
	if m.At(1, 2) != 6 {
		t.Error("Set/Add/At broken")
	}
	if len(m.Row(1)) != 3 || m.Row(1)[2] != 6 {
		t.Error("Row broken")
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Error("Clone shares storage")
	}
}

func TestFromRowsAndT(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	tr := m.T()
	if tr.At(0, 1) != 3 || tr.At(1, 0) != 2 {
		t.Error("transpose wrong")
	}
	if _, err := FromRows([][]float64{{1}, {2, 3}}); err == nil {
		t.Error("ragged rows accepted")
	}
	empty, err := FromRows(nil)
	if err != nil || empty.Rows != 0 {
		t.Error("empty FromRows broken")
	}
}

func TestEyeScaleAddMat(t *testing.T) {
	e := Eye(3).Scale(2)
	if e.At(1, 1) != 2 || e.At(0, 1) != 0 {
		t.Error("Eye/Scale broken")
	}
	if err := e.AddMat(Eye(3)); err != nil {
		t.Fatal(err)
	}
	if e.At(2, 2) != 3 {
		t.Error("AddMat broken")
	}
	if err := e.AddMat(NewMat(2, 2)); err == nil {
		t.Error("shape mismatch accepted")
	}
}

func TestGemm(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c := NewMat(2, 2)
	if err := Gemm(c, a, b); err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{19, 22}, {43, 50}}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if c.At(i, j) != want[i][j] {
				t.Errorf("C[%d][%d] = %v, want %v", i, j, c.At(i, j), want[i][j])
			}
		}
	}
	// Accumulation semantics: a second Gemm doubles the result.
	if err := Gemm(c, a, b); err != nil {
		t.Fatal(err)
	}
	if c.At(0, 0) != 38 {
		t.Error("Gemm does not accumulate")
	}
	if err := Gemm(NewMat(2, 3), a, b); err == nil {
		t.Error("bad shapes accepted")
	}
	if GemmFlops(2, 3, 4) != 48 {
		t.Error("GemmFlops wrong")
	}
}

// naiveGemm is the triple loop Gemm must reproduce bit for bit.
func naiveGemm(c, a, b *Mat) {
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			for j := 0; j < b.Cols; j++ {
				c.Add(i, j, a.At(i, k)*b.At(k, j))
			}
		}
	}
}

// sameBits reports whether two matrices hold the same float64 bit
// patterns (so -0 differs from +0 and a NaN equals itself).
func sameBits(x, y *Mat) (int, bool) {
	for i := range x.Data {
		if math.Float64bits(x.Data[i]) != math.Float64bits(y.Data[i]) {
			return i, false
		}
	}
	return 0, true
}

// TestGemmMatchesNaiveExactly holds the register-tiled kernel to the
// plain triple loop bit for bit: at every remainder of the 2x4 tile (odd
// row counts, column counts 1, 2 and 3 past a multiple of four), at a
// zero inner dimension, at SUMMA's 64-block and the referee's 256 rows,
// and on the operands where skipping a zero a[i][k] would show: an
// infinity in B, and a C that starts at -0.
func TestGemmMatchesNaiveExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	random := func(m, n int) *Mat {
		x := NewMat(m, n)
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		return x
	}
	check := func(name string, c, a, b *Mat) {
		t.Helper()
		want := c.Clone()
		naiveGemm(want, a, b)
		if err := Gemm(c, a, b); err != nil {
			t.Fatal(err)
		}
		if i, ok := sameBits(c, want); !ok {
			t.Fatalf("%s %dx%dx%d: element %d = %v, naive loop gives %v", name, a.Rows, b.Cols, a.Cols, i, c.Data[i], want.Data[i])
		}
	}
	for _, dims := range [][3]int{
		{1, 1, 1}, {3, 5, 2}, {7, 4, 9}, {6, 7, 6}, {16, 16, 16}, {5, 13, 3},
		{2, 4, 1}, {3, 1, 4}, {5, 2, 7}, {1, 3, 5}, {9, 6, 2}, {4, 11, 8},
		{3, 5, 0}, {0, 4, 3}, {10, 10, 10}, {64, 64, 64}, {256, 64, 256},
	} {
		m, n, kk := dims[0], dims[1], dims[2]
		c := NewMat(m, n)
		for i := range c.Data {
			c.Data[i] = float64(i) // Gemm accumulates
		}
		check("random", c, random(m, kk), random(kk, n))
	}

	// A zero in A against an infinity in B is NaN, not a skipped term:
	// zeros in both rows of a tile and in the trailing odd row, against
	// infinities in tiled and in trailing columns.
	a, b := random(3, 5), random(5, 6)
	a.Set(0, 2, 0)
	a.Set(1, 2, 0)
	a.Set(2, 4, 0)
	b.Set(2, 3, math.Inf(1))
	b.Set(2, 4, math.Inf(1))
	b.Set(4, 1, math.Inf(-1))
	b.Set(4, 5, math.Inf(-1))
	c := NewMat(3, 6)
	check("inf", c, a, b)
	for _, at := range [][2]int{{0, 3}, {1, 4}, {2, 1}, {2, 5}} {
		if x := c.At(at[0], at[1]); !math.IsNaN(x) {
			t.Errorf("0 * Inf accumulated to C[%d][%d] = %v, want NaN", at[0], at[1], x)
		}
	}

	// -0 plus a product +0 is +0: zero A rows (a tile's pair and the
	// trailing odd row) must still touch C.
	a, b = random(5, 3), random(3, 7)
	for k := 0; k < 3; k++ {
		a.Set(0, k, 0)
		a.Set(1, k, 0)
		a.Set(4, k, 0)
	}
	c = NewMat(5, 7)
	for i := range c.Data {
		c.Data[i] = math.Copysign(0, -1)
	}
	check("negzero", c, a, b)
}

// BenchmarkGemm times the kernel at BPMF's latent dimension (the Wishart
// draw's two products), SUMMA's fig-apps block and the order 256 of the
// reference product its verification computes (in 64-row bands), on
// operands without zeros, as SUMMA's are.
func BenchmarkGemm(b *testing.B) {
	for _, n := range []int{10, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			x, y, c := NewMat(n, n), NewMat(n, n), NewMat(n, n)
			for i := range x.Data {
				x.Data[i], y.Data[i] = float64(i%7+1), float64(i%5+1)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := Gemm(c, x, y); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(GemmFlops(n, n, n)*float64(b.N)/b.Elapsed().Seconds()/1e6, "Mflop/s")
		})
	}
}

func TestGemmAssociativityProperty(t *testing.T) {
	// (A*B)*x == A*(B*x) for random small matrices.
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(6)
		a, b := NewMat(n, n), NewMat(n, n)
		x := make([]float64, n)
		for i := range a.Data {
			a.Data[i] = rng.NormFloat64()
			b.Data[i] = rng.NormFloat64()
		}
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		ab := NewMat(n, n)
		if err := Gemm(ab, a, b); err != nil {
			t.Fatal(err)
		}
		lhs, err := MulVec(ab, x)
		if err != nil {
			t.Fatal(err)
		}
		bx, _ := MulVec(b, x)
		rhs, _ := MulVec(a, bx)
		for i := range lhs {
			if !almostEq(lhs[i], rhs[i], 1e-9*(1+math.Abs(lhs[i]))) {
				t.Fatalf("trial %d: (AB)x != A(Bx) at %d: %v vs %v", trial, i, lhs[i], rhs[i])
			}
		}
	}
}

func TestMulVecErrors(t *testing.T) {
	if _, err := MulVec(NewMat(2, 3), []float64{1}); err == nil {
		t.Error("bad vector length accepted")
	}
}

func TestSyrk(t *testing.T) {
	c := NewMat(2, 2)
	if err := SyrkUpper(c, []float64{2, 3}); err != nil {
		t.Fatal(err)
	}
	if c.At(0, 0) != 4 || c.At(0, 1) != 6 || c.At(1, 1) != 9 {
		t.Error("Syrk wrong")
	}
	if err := SyrkUpper(c, []float64{1}); err == nil {
		t.Error("bad vector accepted")
	}
}

func TestCholeskyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(8)
		// Build SPD A = M Mᵀ + n*I.
		m := NewMat(n, n)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		a := NewMat(n, n)
		if err := Gemm(a, m, m.T()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n))
		}
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// L Lᵀ must reproduce A.
		back := NewMat(n, n)
		if err := Gemm(back, l, l.T()); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if !almostEq(back.At(i, j), a.At(i, j), 1e-8*(1+math.Abs(a.At(i, j)))) {
					t.Fatalf("trial %d: LLt != A at (%d,%d)", trial, i, j)
				}
			}
		}
	}
}

func TestCholeskyIntoOverwrites(t *testing.T) {
	a, _ := FromRows([][]float64{{4, 2}, {2, 5}})
	want, err := Cholesky(a)
	if err != nil {
		t.Fatal(err)
	}
	l, _ := FromRows([][]float64{{7, 7}, {7, 7}}) // a reused factor holds the last one
	if err := CholeskyInto(l, a); err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if l.Data[i] != want.Data[i] {
			t.Errorf("element %d = %v, want %v", i, l.Data[i], want.Data[i])
		}
	}
	if err := CholeskyInto(NewMat(3, 3), a); err == nil {
		t.Error("destination of another shape accepted")
	}
}

func TestCholeskyRejects(t *testing.T) {
	if _, err := Cholesky(NewMat(2, 3)); err == nil {
		t.Error("non-square accepted")
	}
	neg, _ := FromRows([][]float64{{-1}})
	if _, err := Cholesky(neg); err == nil {
		t.Error("negative-definite accepted")
	}
}

func TestSolveSPD(t *testing.T) {
	a, _ := FromRows([][]float64{{4, 1}, {1, 3}})
	b := []float64{1, 2}
	x, err := SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Check A x == b.
	ax, _ := MulVec(a, x)
	for i := range b {
		if !almostEq(ax[i], b[i], 1e-12) {
			t.Errorf("Ax[%d] = %v, want %v", i, ax[i], b[i])
		}
	}
}

func TestSolveSPDProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(6)
		m := NewMat(n, n)
		for i := range m.Data {
			m.Data[i] = rng.NormFloat64()
		}
		a := NewMat(n, n)
		_ = Gemm(a, m, m.T())
		for i := 0; i < n; i++ {
			a.Add(i, i, float64(n))
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := SolveSPD(a, b)
		if err != nil {
			return false
		}
		ax, _ := MulVec(a, x)
		for i := range b {
			if !almostEq(ax[i], b[i], 1e-7*(1+math.Abs(b[i]))) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestTriangularSolveErrors(t *testing.T) {
	l := Eye(2)
	x := []float64{1}
	if err := SolveLowerInto(x, l, x); err == nil {
		t.Error("bad length accepted")
	}
	if err := SolveUpperTInto(x, l, x); err == nil {
		t.Error("bad length accepted")
	}
	if err := SolveLowerInto(make([]float64, 2), l, x); err == nil {
		t.Error("bad right-hand side accepted")
	}
	if err := SolveUpperTInto(x, l, make([]float64, 2)); err == nil {
		t.Error("bad destination accepted")
	}
	sing := NewMat(1, 1)
	if err := SolveLowerInto(x, sing, x); err == nil {
		t.Error("singular accepted")
	}
	if err := SolveUpperTInto(x, sing, x); err == nil {
		t.Error("singular accepted")
	}
}

func TestSampleMVNMoments(t *testing.T) {
	// Sample mean and covariance should approach the parameters.
	mean := []float64{1, -2}
	cov, _ := FromRows([][]float64{{2, 0.5}, {0.5, 1}})
	rng := rand.New(rand.NewSource(42))
	const nSamp = 20000
	sum := make([]float64, 2)
	cc := NewMat(2, 2)
	for s := 0; s < nSamp; s++ {
		x, err := SampleMVN(mean, cov, rng)
		if err != nil {
			t.Fatal(err)
		}
		d := []float64{x[0] - mean[0], x[1] - mean[1]}
		sum[0] += x[0]
		sum[1] += x[1]
		_ = SyrkUpper(cc, d)
	}
	for i := range mean {
		if !almostEq(sum[i]/nSamp, mean[i], 0.05) {
			t.Errorf("sample mean[%d] = %v, want ~%v", i, sum[i]/nSamp, mean[i])
		}
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			if !almostEq(cc.At(i, j)/nSamp, cov.At(i, j), 0.08) {
				t.Errorf("sample cov[%d][%d] = %v, want ~%v", i, j, cc.At(i, j)/nSamp, cov.At(i, j))
			}
		}
	}
}

// TestChiSquareMoments checks the Marsaglia-Tsang draw against the
// distribution's mean k and variance 2k, at the small dof of the unit
// tests, at BPMF's two fig-apps row counts, and at the k = 1 boost.
func TestChiSquareMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	const nSamp = 20000
	for _, dof := range []int{1, 10, 250, 1210} {
		sum, sumSq := 0.0, 0.0
		for s := 0; s < nSamp; s++ {
			x := chiSquare(dof, rng)
			if x <= 0 {
				t.Fatalf("dof %d: draw %v", dof, x)
			}
			sum += x
			sumSq += x * x
		}
		mean := sum / nSamp
		variance := sumSq/nSamp - mean*mean
		if k := float64(dof); math.Abs(mean-k) > 0.02*k || math.Abs(variance-2*k) > 0.10*2*k {
			t.Errorf("dof %d: mean %.3f (want %d within 2%%), variance %.3f (want %d within 10%%)", dof, mean, dof, variance, 2*dof)
		}
	}
}

func TestSampleWishartMean(t *testing.T) {
	// E[Wishart(S, dof)] = dof * S.
	scale, _ := FromRows([][]float64{{0.5, 0.1}, {0.1, 0.3}})
	const dof = 10
	rng := rand.New(rand.NewSource(9))
	mean := NewMat(2, 2)
	const nSamp = 4000
	for s := 0; s < nSamp; s++ {
		w, err := SampleWishart(scale, dof, rng)
		if err != nil {
			t.Fatal(err)
		}
		_ = mean.AddMat(w)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 2; j++ {
			want := dof * scale.At(i, j)
			got := mean.At(i, j) / nSamp
			if !almostEq(got, want, 0.25) {
				t.Errorf("Wishart mean[%d][%d] = %v, want ~%v", i, j, got, want)
			}
		}
	}
	if _, err := SampleWishart(scale, 1, rng); err == nil {
		t.Error("dof < dim accepted")
	}
}

func TestSampleMVNDeterministicPerSeed(t *testing.T) {
	mean := []float64{0, 0, 0}
	cov := Eye(3)
	a, _ := SampleMVN(mean, cov, rand.New(rand.NewSource(5)))
	b, _ := SampleMVN(mean, cov, rand.New(rand.NewSource(5)))
	for i := range a {
		if a[i] != b[i] {
			t.Error("MVN sampling not reproducible per seed")
		}
	}
}

// FromRows, Eye, Add, AddMat and SolveSPD are the tests' fixtures and
// referee: no workload builds a matrix from literals or an identity,
// updates one through anything but a row slice, or solves one system
// without keeping the factor (bpmf calls CholeskyInto, SolveLowerInto
// and SolveUpperTInto itself, on its own workspace).

// Add increments element (i, j).
func (m *Mat) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Eye returns the n x n identity.
func Eye(n int) *Mat {
	m := NewMat(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
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

// FromRows builds a matrix from row slices (all equal length).
func FromRows(rows [][]float64) (*Mat, error) {
	if len(rows) == 0 {
		return NewMat(0, 0), nil
	}
	m := NewMat(len(rows), len(rows[0]))
	for i, r := range rows {
		if len(r) != m.Cols {
			return nil, fmt.Errorf("la: row %d has %d entries, want %d", i, len(r), m.Cols)
		}
		copy(m.Data[i*m.Cols:], r)
	}
	return m, nil
}

// SolveSPD solves A x = b for SPD A via Cholesky.
func SolveSPD(a *Mat, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	x := make([]float64, len(b))
	if err := SolveLowerInto(x, l, b); err != nil {
		return nil, err
	}
	return x, SolveUpperTInto(x, l, x)
}
