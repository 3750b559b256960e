package benchfmt

import (
	"math"
	"sort"
)

// DefaultAlpha is the significance level benchdiff's regression gate and the
// trend changepoint detector use: a delta counts as real only when the
// Mann-Whitney test rejects "same distribution" at p <= 0.05.
const DefaultAlpha = 0.05

// Dist summarizes one metric's samples across repeated runs
// (`go test -count=N`): the moments plus a 95% confidence interval on the
// mean. A single-sample distribution degenerates to its point value with
// zero spread, so every consumer can treat old single-sample reports and
// new multi-sample ones uniformly.
type Dist struct {
	N      int     `json:"n"`
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Stddev float64 `json:"stddev"` // sample standard deviation (n-1)
	CILow  float64 `json:"ci_low"`
	CIHigh float64 `json:"ci_high"` // 95% CI on the mean (Student t)
}

// NewDist computes the distribution of a sample set. An empty set yields
// the zero Dist (N=0).
func NewDist(samples []float64) Dist {
	d := Dist{N: len(samples)}
	if d.N == 0 {
		return d
	}
	d.Min, d.Max = samples[0], samples[0]
	var sum float64
	for _, v := range samples {
		sum += v
		if v < d.Min {
			d.Min = v
		}
		if v > d.Max {
			d.Max = v
		}
	}
	d.Mean = sum / float64(d.N)
	if d.N == 1 {
		d.CILow, d.CIHigh = d.Mean, d.Mean
		return d
	}
	var ss float64
	for _, v := range samples {
		dv := v - d.Mean
		ss += dv * dv
	}
	d.Stddev = math.Sqrt(ss / float64(d.N-1))
	half := tCrit(d.N-1) * d.Stddev / math.Sqrt(float64(d.N))
	d.CILow, d.CIHigh = d.Mean-half, d.Mean+half
	return d
}

// Overlaps reports whether the 95% confidence intervals of d and o
// intersect. Disjoint intervals are the trend store's step-detection
// criterion: the two means are distinguishable above run-to-run noise.
func (d Dist) Overlaps(o Dist) bool {
	return d.CILow <= o.CIHigh && o.CILow <= d.CIHigh
}

// tCrit returns the two-sided 97.5% Student-t critical value for the given
// degrees of freedom (so mean +- tCrit*stderr is a 95% CI). Exact table
// through df=30, the normal limit beyond — bench sample counts live at the
// small end where the t correction actually matters.
func tCrit(df int) float64 {
	table := [...]float64{
		1: 12.706, 2: 4.303, 3: 3.182, 4: 2.776, 5: 2.571,
		6: 2.447, 7: 2.365, 8: 2.306, 9: 2.262, 10: 2.228,
		11: 2.201, 12: 2.179, 13: 2.160, 14: 2.145, 15: 2.131,
		16: 2.120, 17: 2.110, 18: 2.101, 19: 2.093, 20: 2.086,
		21: 2.080, 22: 2.074, 23: 2.069, 24: 2.064, 25: 2.060,
		26: 2.056, 27: 2.052, 28: 2.048, 29: 2.045, 30: 2.042,
	}
	if df < 1 {
		return math.NaN()
	}
	if df < len(table) {
		return table[df]
	}
	return 1.960
}

// exactMaxN bounds the exact Mann-Whitney computation: up to 20 samples a
// side the null distribution is enumerated exactly; beyond that (or with
// ties, whose exact distribution depends on the tie pattern) the normal
// approximation with tie and continuity corrections takes over.
const exactMaxN = 20

// MannWhitneyU runs a two-sided Mann-Whitney U test (the significance
// test benchstat uses) on two independent sample sets and returns the
// p-value for the null hypothesis that they come from the same
// distribution. Small untied inputs get the exact permutation
// distribution — unit-tested against the published critical-value tables —
// larger or tied inputs the normal approximation with midranks, tie
// variance correction and continuity correction. Either side empty
// returns NaN: no data, no verdict.
func MannWhitneyU(x, y []float64) float64 {
	n1, n2 := len(x), len(y)
	if n1 == 0 || n2 == 0 {
		return math.NaN()
	}
	type obs struct {
		v   float64
		grp int
	}
	all := make([]obs, 0, n1+n2)
	for _, v := range x {
		all = append(all, obs{v, 0})
	}
	for _, v := range y {
		all = append(all, obs{v, 1})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Midranks, and the Σ(t³-t) term for the tie variance correction.
	ranks := make([]float64, len(all))
	ties := false
	var tieTerm float64
	for i := 0; i < len(all); {
		j := i
		for j < len(all) && all[j].v == all[i].v {
			j++
		}
		r := float64(i+j+1) / 2 // mean of 1-based ranks i+1..j
		for k := i; k < j; k++ {
			ranks[k] = r
		}
		if t := j - i; t > 1 {
			ties = true
			tf := float64(t)
			tieTerm += tf*tf*tf - tf
		}
		i = j
	}
	var r1 float64
	for i, o := range all {
		if o.grp == 0 {
			r1 += ranks[i]
		}
	}
	u1 := r1 - float64(n1*(n1+1))/2
	u2 := float64(n1*n2) - u1
	u := math.Min(u1, u2)

	if !ties && n1 <= exactMaxN && n2 <= exactMaxN {
		return exactP(int(u), n1, n2)
	}
	n := float64(n1 + n2)
	mu := float64(n1*n2) / 2
	sigma2 := float64(n1*n2) / 12 * ((n + 1) - tieTerm/(n*(n-1)))
	if sigma2 <= 0 {
		return 1 // every observation tied: the sides are indistinguishable
	}
	z := (u - mu + 0.5) / math.Sqrt(sigma2) // continuity-corrected, z <= 0
	p := math.Erfc(-z / math.Sqrt2)         // = 2*Φ(z)
	return math.Min(p, 1)
}

// exactP is the exact two-sided p-value: twice the null probability of a
// U statistic at or below u, capped at 1 (the null distribution of U is
// symmetric about n1*n2/2).
func exactP(u, n1, n2 int) float64 {
	memo := map[[3]int]float64{}
	var cum float64
	for k := 0; k <= u; k++ {
		cum += countU(k, n1, n2, memo)
	}
	p := 2 * cum / binom(n1+n2, n1)
	return math.Min(p, 1)
}

// countU counts the orderings of n x-observations and m y-observations
// whose U statistic equals u, via the standard recurrence
// N(u;n,m) = N(u-m;n-1,m) + N(u;n,m-1): the largest observation is either
// an x (contributing m pairs) or a y (contributing none).
func countU(u, n, m int, memo map[[3]int]float64) float64 {
	if u < 0 {
		return 0
	}
	if n == 0 || m == 0 {
		if u == 0 {
			return 1
		}
		return 0
	}
	key := [3]int{u, n, m}
	if v, ok := memo[key]; ok {
		return v
	}
	v := countU(u-m, n-1, m, memo) + countU(u, n, m-1, memo)
	memo[key] = v
	return v
}

// binom computes C(n,k) in floating point — exact for every size the
// exact test reaches (C(40,20) ≈ 1.4e11 needs 38 bits).
func binom(n, k int) float64 {
	if k > n-k {
		k = n - k
	}
	v := 1.0
	for i := 1; i <= k; i++ {
		v = v * float64(n-k+i) / float64(i)
	}
	return v
}
