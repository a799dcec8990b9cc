package bpmf

import (
	"fmt"
	"math/rand/v2"

	"repro/internal/la"
)

// Gibbs-sampling machinery: the Normal-Wishart hyperparameter draws and
// the per-row conditional draws of BPMF [26]. All draws are keyed by
// (seed, iteration, phase, row), never by rank, so a run partitioned
// over any number of processes produces bit-identical samples — the
// property the pure-vs-hybrid equivalence tests rely on.

const (
	alphaPrec = 2.0 // observation precision (paper-standard)
	beta0     = 2.0 // Normal-Wishart prior strength
)

// hyper is one phase's sampled hyperparameter set.
type hyper struct {
	mu     []float64 // K
	lambda *la.Mat   // K x K precision
	lmu    []float64 // lambda * mu, precomputed for the row draws
}

// sampler is one rank's workspace, built once in runRank, so that a row
// draw allocates nothing and seeds nothing but sixteen bytes: the row's
// precision and its Cholesky factor, two K-vectors, and the one
// generator every draw of the rank comes from, re-keyed in place.
type sampler struct {
	prec, chol *la.Mat    // K x K
	mean, dev  []float64  // K each, halves of one slice
	pcg        rand.PCG   // state of rng; reseed overwrites it
	rng        *rand.Rand // over &pcg, and stateless beside it
}

func newSampler(k int) *sampler {
	vec := make([]float64, 2*k)
	s := &sampler{prec: la.NewMat(k, k), chol: la.NewMat(k, k), mean: vec[:k:k], dev: vec[k:]}
	s.rng = rand.New(&s.pcg)
	return s
}

// hyperRow is the row a phase's hyperparameter draw is keyed by.
const hyperRow = -7

// reseed points the generator at the stream of one (seed, iter, phase,
// row) key; iter -1 is the initial fill. Adjacent keys differ in one
// low bit, so both words of PCG's state go through SplitMix64's
// finalizer.
func (s *sampler) reseed(seed int64, iter int, name string, row int) {
	h := seed*1_000_003 + int64(iter+2)*7_919
	for _, c := range name {
		h = h*131 + int64(c)
	}
	key := uint64(h*1_000_033 + int64(row))
	s.pcg.Seed(mix64(key), mix64(key+0x9e3779b97f4a7c15))
}

func mix64(z uint64) uint64 {
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// rowOf reads row r of an N x K latent matrix stored as a flat float64
// slice.
func rowOf(m []float64, k, r int) []float64 { return m[r*k : (r+1)*k] }

// sampleHyper draws the Normal-Wishart conditional given the current
// latent matrix (flat N x K) from the generator as it stands. One rank
// per phase calls it, through mpi.SetupOnce, and every rank samples its
// rows from the returned draw, which nothing writes afterwards.
func (s *sampler) sampleHyper(latent []float64, n int) (hyper, error) {
	k := len(s.mean)
	// Sufficient statistics.
	mean, d := s.mean, s.dev
	clear(mean)
	for r := 0; r < n; r++ {
		row := rowOf(latent, k, r)
		for i := range mean {
			mean[i] += row[i]
		}
	}
	for i := range mean {
		mean[i] /= float64(n)
	}

	// Posterior Normal-Wishart parameters (mu0 = 0, W0 = I, nu0 = k):
	// W*^-1 = I + cov + coef * mean meanᵀ, accumulated in place.
	nF := float64(n)
	betaStar := beta0 + nF
	nuStar := k + n
	coef := beta0 * nF / betaStar
	wInv := s.prec
	for i := 0; i < k; i++ {
		wrow := wInv.Row(i)
		for j := range wrow {
			wrow[j] = coef * mean[i] * mean[j]
		}
		wrow[i]++
	}
	for r := 0; r < n; r++ {
		row := rowOf(latent, k, r)
		for i := range d {
			d[i] = row[i] - mean[i]
		}
		if err := la.SyrkUpper(wInv, d); err != nil {
			return hyper{}, err
		}
	}
	wStar, err := la.InvSPD(wInv)
	if err != nil {
		return hyper{}, fmt.Errorf("bpmf: hyper W* inversion: %w", err)
	}
	lambda, err := la.SampleWishart(wStar, nuStar, s.rng)
	if err != nil {
		return hyper{}, fmt.Errorf("bpmf: Wishart draw: %w", err)
	}

	// mu ~ N(mu*, (betaStar * lambda)^-1).
	muStar := mean
	for i := range muStar {
		muStar[i] = nF * mean[i] / betaStar
	}
	covMu, err := la.InvSPD(lambda.Clone().Scale(betaStar))
	if err != nil {
		return hyper{}, fmt.Errorf("bpmf: mu covariance: %w", err)
	}
	mu, err := la.SampleMVN(muStar, covMu, s.rng)
	if err != nil {
		return hyper{}, err
	}
	lmu, err := la.MulVec(lambda, mu)
	if err != nil {
		return hyper{}, err
	}
	return hyper{mu: mu, lambda: lambda, lmu: lmu}, nil
}

// sampleRow draws one row's conditional into s.mean from the generator
// as it stands: given the other side's latent matrix `other` (flat, K
// columns), the row's observed column indices and values, and the phase
// hyperparameters.
func (s *sampler) sampleRow(h hyper, other []float64, idx []int32, val []float64) error {
	b := s.mean
	k := len(b)
	copy(s.prec.Data, h.lambda.Data)
	copy(b, h.lmu)
	for t, j := range idx {
		o := rowOf(other, k, int(j))
		for i, oi := range o {
			b[i] += alphaPrec * val[t] * oi
			// The factorization reads the lower triangle only.
			prow := s.prec.Row(i)[:i+1]
			for c := range prow {
				prow[c] += alphaPrec * oi * o[c]
			}
		}
	}
	if err := la.CholeskyInto(s.chol, s.prec); err != nil {
		return fmt.Errorf("bpmf: row precision not SPD: %w", err)
	}
	// mean = prec^-1 b, solved in place.
	if err := la.SolveLowerInto(b, s.chol, b); err != nil {
		return err
	}
	if err := la.SolveUpperTInto(b, s.chol, b); err != nil {
		return err
	}
	// Sample = mean + L^-T z (covariance = prec^-1).
	for i := range s.dev {
		s.dev[i] = s.rng.NormFloat64()
	}
	if err := la.SolveUpperTInto(s.dev, s.chol, s.dev); err != nil {
		return err
	}
	for i := range b {
		b[i] += s.dev[i]
	}
	return nil
}

// rowFlops is the virtual-compute charge for sampling one row with the
// given degree: the Cholesky (k^3/3), the rank-1 accumulations
// (deg * (k^2 + k)), the solves (~3k^2), plus a fixed per-row library
// overhead (RNG, small-matrix handling, probit bookkeeping in the real
// code) that dominates wall time at chembl-like k — the calibration knob
// recorded in EXPERIMENTS.md.
func rowFlops(k, deg int, overhead float64) float64 {
	kf := float64(k)
	return kf*kf*kf/3 + float64(deg)*(kf*kf+kf) + 3*kf*kf + overhead
}

// hyperFlops is the virtual-compute charge of the hyperparameter draw
// over an n x k latent matrix (covariance accumulation dominates).
func hyperFlops(n, k int) float64 {
	kf := float64(k)
	return float64(n)*(kf*kf+kf) + 10*kf*kf*kf
}
