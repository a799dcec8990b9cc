// Package bpmf implements Bayesian Probabilistic Matrix Factorization
// (Salakhutdinov & Mnih [26]) with the distributed Gibbs sampler of
// Vander Aa et al. [1], in the two flavors the paper benchmarks in
// Fig. 12: Ori_BPMF (pure-MPI allgather of the sampled latent blocks)
// and Hy_BPMF (the hybrid allgather of Fig. 4).
//
// The chembl_20 compound-on-target activity matrix is proprietary-ish
// and external; experiments here run on a synthetic dataset with the
// same shape characteristics (a tall sparse matrix with power-law-ish
// row degrees and low-rank structure plus noise), which preserves the
// communication pattern — two allgathers of latent feature blocks per
// Gibbs iteration — that Fig. 12 measures.
package bpmf

import (
	"math/rand"
)

// Dataset is a sparse users x items rating matrix in both CSR (by user)
// and CSC (by item) form. Shape metadata (degrees) is always present;
// the actual indices/values are materialized only when real sampling is
// requested, so size-only performance runs stay cheap at scale.
type Dataset struct {
	Users, Items int
	NNZ          int

	UserDeg []int // ratings per user
	ItemDeg []int // ratings per item

	// Materialized entries (nil when shape-only).
	UserIdx [][]int32   // item ids per user
	UserVal [][]float64 // ratings per user
	ItemIdx [][]int32   // user ids per item
	ItemVal [][]float64 // ratings per item
}

// Synthetic builds a deterministic chembl_20-shaped dataset. Each user
// (compound) gets a degree drawn from a heavy-tailed distribution with
// the given mean; ratings follow a rank-`trueK` model plus Gaussian
// noise so the sampler has real structure to recover.
func Synthetic(users, items, avgDeg int, seed int64, materialize bool) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	d := &Dataset{
		Users:   users,
		Items:   items,
		UserDeg: make([]int, users),
		ItemDeg: make([]int, items),
	}

	// Heavy-tailed degrees: geometric-ish with a power-law bump, at
	// least one rating each so no row is empty.
	degs := make([]int, users)
	for u := range degs {
		deg := 1
		for deg < avgDeg*8 && rng.Float64() < 1-1/float64(avgDeg) {
			deg++
		}
		if r := rng.Float64(); r < 0.02 {
			deg *= 4 // a few promiscuous compounds
		}
		if deg > items {
			deg = items
		}
		degs[u] = deg
		d.UserDeg[u] = deg
		d.NNZ += deg
	}

	// Item assignment: preferential-ish, via a squared-uniform skew.
	pickItem := func() int32 {
		f := rng.Float64()
		return int32(float64(items-1) * f * f)
	}

	if !materialize {
		// Shape-only: distribute degrees over items the same way so
		// ItemDeg is consistent, but store no entries.
		for u := 0; u < users; u++ {
			for t := 0; t < degs[u]; t++ {
				d.ItemDeg[pickItem()]++
			}
		}
		return d
	}

	// Everything below is sized by users, items and NNZ and made once:
	// the true factors as flat matrices, one arena per CSR/CSC column.
	const trueK = 4
	uTrue := normVec(users*trueK, rng)
	vTrue := normVec(items*trueK, rng)

	// User side, in (u, t) order; seen[j] holds the last user (plus one)
	// that rated item j.
	userIdx := make([]int32, d.NNZ)
	userVal := make([]float64, d.NNZ)
	seen := make([]int32, items)
	d.UserIdx = make([][]int32, users)
	d.UserVal = make([][]float64, users)
	off := 0
	for u := 0; u < users; u++ {
		end := off + degs[u]
		d.UserIdx[u] = userIdx[off:end:end]
		d.UserVal[u] = userVal[off:end:end]
		for t := off; t < end; t++ {
			j := pickItem()
			for seen[j] == int32(u)+1 {
				j = (j + 1) % int32(items)
			}
			seen[j] = int32(u) + 1
			userIdx[t] = j
			userVal[t] = dot(rowOf(uTrue, trueK, u), rowOf(vTrue, trueK, int(j))) + float64(0.3*rng.NormFloat64())
			d.ItemDeg[j]++
		}
		off = end
	}

	// Item side: the same entries in the same (u, t) order, now that
	// ItemDeg says where each item's run starts.
	itemIdx := make([]int32, d.NNZ)
	itemVal := make([]float64, d.NNZ)
	d.ItemIdx = make([][]int32, items)
	d.ItemVal = make([][]float64, items)
	off = 0
	for j, deg := range d.ItemDeg {
		d.ItemIdx[j] = itemIdx[off : off : off+deg]
		d.ItemVal[j] = itemVal[off : off : off+deg]
		off += deg
	}
	for u, row := range d.UserIdx {
		for t, j := range row {
			d.ItemIdx[j] = append(d.ItemIdx[j], int32(u))
			d.ItemVal[j] = append(d.ItemVal[j], d.UserVal[u][t])
		}
	}
	return d
}

func normVec(n int, rng *rand.Rand) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * 0.7
	}
	return v
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += float64(a[i] * b[i])
	}
	return s
}

// Share splits count rows over parts, returning the [lo, hi) range of
// part p — the contiguous block distribution both BPMF flavors use.
func Share(count, parts, p int) (lo, hi int) {
	base := count / parts
	extra := count % parts
	lo = p*base + min(p, extra)
	hi = lo + base
	if p < extra {
		hi++
	}
	return lo, hi
}
