// Package rng provides deterministic, splittable pseudo-random number
// generation for the FLIPS simulator.
//
// Every stochastic component in this repository (dataset synthesis, Dirichlet
// partitioning, k-means++ seeding, participant selection, straggler
// injection) draws from an explicitly passed *rng.Source so that experiments
// are reproducible bit-for-bit from a single seed, and so that independent
// subsystems can be re-seeded without perturbing each other (the "split"
// operation derives stream-independent children).
package rng

// Source is a deterministic pseudo-random number generator based on the
// SplitMix64/xoshiro256** family. The zero value is not usable; construct
// with New or Split.
type Source struct {
	s [4]uint64
}

// New returns a Source seeded from seed via SplitMix64 expansion, which
// guarantees a well-mixed non-zero internal state for any seed, including 0.
func New(seed uint64) *Source {
	var src Source
	sm := seed
	for i := range src.s {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		src.s[i] = z ^ (z >> 31)
	}
	return &src
}

// State exposes the generator's internal xoshiro256** state so a Source can
// be serialized across a process boundary. Together with FromState it lets a
// coordinator pre-split per-party streams in canonical order and ship them to
// shard workers, preserving bit-exact draws.
func (r *Source) State() [4]uint64 { return r.s }

// FromState reconstructs a Source from a state captured by State. The
// reconstructed generator continues the original stream exactly.
func FromState(s [4]uint64) *Source { return &Source{s: s} }

// Split derives a child Source whose stream is independent of the parent's
// subsequent output. The label distinguishes siblings split from the same
// parent state.
func (r *Source) Split(label uint64) *Source {
	child := r.split(label)
	return &child
}

// split is Split by value. Kept out of Split so that Split inlines: a caller
// that stores the child by value (*r.Split(label)) then allocates nothing.
func (r *Source) split(label uint64) Source {
	// Mix the label into a fresh seed drawn from the parent stream.
	return *New(r.Uint64() ^ (label * 0xd1342543de82ef95))
}

// Uint64 returns the next 64 uniformly distributed bits (xoshiro256**).
func (r *Source) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17

	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)

	return result
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Float64 returns a uniform float64 in [0, 1).
//
// The float64 conversions here and in sampling.go round a product before it
// feeds an add, so a compiler that fuses x*y + z (arm64) draws the amd64 bits.
func (r *Source) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Intn returns a uniform int in [0, n). It panics if n <= 0, mirroring
// math/rand semantics; callers validate n at configuration boundaries.
func (r *Source) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn called with non-positive n")
	}
	// Lemire's nearly-divisionless bounded sampling.
	v := r.Uint64()
	hi, lo := mul64(v, uint64(n))
	if lo < uint64(n) {
		thresh := uint64(-n) % uint64(n)
		for lo < thresh {
			v = r.Uint64()
			hi, lo = mul64(v, uint64(n))
		}
	}
	return int(hi)
}

func mul64(x, y uint64) (hi, lo uint64) {
	const mask32 = 1<<32 - 1
	x0, x1 := x&mask32, x>>32
	y0, y1 := y&mask32, y>>32
	w0 := x0 * y0
	t := x1*y0 + w0>>32
	w1 := t & mask32
	w2 := t >> 32
	w1 += x0 * y1
	hi = x1*y1 + w2 + w1>>32
	lo = x * y
	return hi, lo
}

// Shuffle performs a Fisher-Yates shuffle of n elements using swap.
func (r *Source) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		swap(i, j)
	}
}
