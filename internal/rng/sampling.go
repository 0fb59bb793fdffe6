package rng

import "math"

// Dirichlet draws a sample from a symmetric Dirichlet distribution with
// concentration alpha over dim categories. The returned proportions sum to 1.
//
// This is the partitioning primitive the paper uses to emulate non-IID data
// (§4.3, "Dirichlet Allocation"): small alpha yields extreme label skew,
// alpha >= 1 approaches IID proportions.
func (r *Source) Dirichlet(alpha float64, dim int) []float64 {
	alphas := make([]float64, dim)
	for i := range alphas {
		alphas[i] = alpha
	}
	return r.DirichletVec(alphas)
}

// DirichletVec draws from a Dirichlet distribution with per-category
// concentrations alphas.
func (r *Source) DirichletVec(alphas []float64) []float64 {
	out := make([]float64, len(alphas))
	var sum float64
	for i, a := range alphas {
		g := r.Gamma(a)
		out[i] = g
		sum += g
	}
	if sum == 0 {
		// Degenerate draw (all gammas underflowed): fall back to a single
		// random category, which is the alpha->0 limit of the distribution.
		out[r.Intn(len(out))] = 1
		return out
	}
	for i := range out {
		out[i] /= sum
	}
	return out
}

// Gamma draws from a Gamma(shape, 1) distribution using the
// Marsaglia-Tsang squeeze method, with Johnk boosting for shape < 1.
func (r *Source) Gamma(shape float64) float64 {
	if shape <= 0 {
		return 0
	}
	if shape < 1 {
		// Gamma(a) = Gamma(a+1) * U^{1/a}
		u := r.Float64()
		for u == 0 {
			u = r.Float64()
		}
		return r.Gamma(shape+1) * math.Pow(u, 1/shape)
	}
	d := shape - 1.0/3.0
	c := 1 / math.Sqrt(9*d)
	for {
		x := r.NormFloat64()
		v := 1 + c*x
		if v <= 0 {
			continue
		}
		v = v * v * v
		u := r.Float64()
		if u < 1-0.0331*x*x*x*x {
			return d * v
		}
		if u > 0 && math.Log(u) < 0.5*x*x+d*(1-v+math.Log(v)) {
			return d * v
		}
	}
}

// Categorical samples an index from the (not necessarily normalized)
// non-negative weight vector. It panics on an empty vector and returns the
// last index if the weights sum to zero (caller-visible but deterministic).
func (r *Source) Categorical(weights []float64) int {
	if len(weights) == 0 {
		panic("rng: Categorical called with empty weights")
	}
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total == 0 {
		return r.Intn(len(weights))
	}
	u := r.Float64() * total
	var acc float64
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// sparseSampleThreshold is the population size above which
// SampleWithoutReplacement switches from the dense partial Fisher-Yates
// (O(n) scratch) to the sparse virtual shuffle (O(k) scratch). Both paths
// consume the identical RNG stream and return identical indices — the
// threshold is purely a memory/scale decision, so fleet-scale selectors can
// draw small cohorts from 100k+ -party populations without allocating a
// population-sized permutation per call.
const sparseSampleThreshold = 1024

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// [0, n). It panics if k > n. Memory is O(min(n, k)) — see
// sparseSampleThreshold.
func (r *Source) SampleWithoutReplacement(n, k int) []int {
	if k > n {
		panic("rng: SampleWithoutReplacement k > n")
	}
	if n > sparseSampleThreshold {
		return r.sampleSparse(n, k)
	}
	return r.sampleDense(n, k)
}

// sampleDense is the partial Fisher-Yates over a materialized permutation:
// O(n) space, O(k) swaps.
func (r *Source) sampleDense(n, k int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		p[i], p[j] = p[j], p[i]
	}
	out := make([]int, k)
	copy(out, p[:k])
	return out
}

// sampleSparse runs the same partial Fisher-Yates over a virtual identity
// permutation, tracking only displaced positions in a map. The sequence of
// Intn draws and the produced indices are bit-identical to sampleDense —
// position x holds x until a swap moves something there — with O(k) memory
// instead of O(n).
func (r *Source) sampleSparse(n, k int) []int {
	swapped := make(map[int]int, 2*k)
	at := func(x int) int {
		if v, ok := swapped[x]; ok {
			return v
		}
		return x
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		vi, vj := at(i), at(j)
		out[i] = vj
		swapped[i], swapped[j] = vj, vi
	}
	return out
}

// Laplace draws from the Laplace distribution with scale b (mean 0) by
// inverse-CDF sampling — the noise of the (ε, 0)-differential-privacy
// mechanism the privacy middleware applies to the folded delta.
func (r *Source) Laplace(b float64) float64 {
	u := r.Float64() - 0.5
	if u < 0 {
		return b * math.Log(1+2*u)
	}
	return -b * math.Log(1-2*u)
}
