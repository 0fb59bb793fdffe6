package selection

import (
	"flips/internal/fl"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// gradPool is the gradient memory shared by the update-geometry selectors
// (GradClus's cosine clustering, DPP's diversity kernel): every party's
// last-known model update, with random placeholder gradients for parties
// never observed.
//
// Below the scale threshold all placeholders are materialized eagerly and
// the pool is the full population. Above it, placeholders derive statelessly
// from (phSeed, id) and the pool is bounded: the most recently observed
// parties topped up with uniformly drawn unobserved ones, so memory is
// O(observed·dim) instead of O(parties·dim).
type gradPool struct {
	numParties int
	gradDim    int

	grads []tensor.Vec

	// Fleet-scale state. observed lists parties with real gradients in
	// last-observation order (newest at the end; re-observed parties move to
	// the back via -1 tombstones, compacted when they dominate); phSeed
	// derives placeholder gradients statelessly per party. inPool is the
	// pool dedupe scratch, all false between calls.
	scaleMode  bool
	observed   []int
	obsPos     []int // party id -> index in observed (-1 if never observed)
	tombstones int
	isObserved []bool
	phSeed     uint64
	inPool     []bool
}

// gradPoolCap bounds the fleet-scale pool: each round works over at most
// max(gradPoolCap, 2·target) parties. Hierarchical clustering is
// O(pool²·dim), so an unbounded pool is quadratic in the fleet.
const gradPoolCap = 192

// newGradPool builds the pool, consuming RNG exactly as the historical
// GradClus constructor did: one Uint64 for the placeholder seed in scale
// mode, else numParties·gradDim normals in id-then-dim order.
func newGradPool(numParties, gradDim, scaleThreshold int, r *rng.Source) *gradPool {
	p := &gradPool{
		numParties: numParties,
		gradDim:    gradDim,
		grads:      make([]tensor.Vec, numParties),
	}
	if numParties > scaleThreshold {
		p.scaleMode = true
		p.isObserved = make([]bool, numParties)
		p.obsPos = make([]int, numParties)
		for i := range p.obsPos {
			p.obsPos[i] = -1
		}
		p.phSeed = r.Uint64()
		p.inPool = make([]bool, numParties)
		return p
	}
	for i := range p.grads {
		v := tensor.NewVec(gradDim)
		r.Normals(v)
		p.grads[i] = v
	}
	return p
}

// pool returns the party ids to work over this round: the whole population
// below the scale threshold, else a bounded pool of the most recently
// observed parties topped up with uniformly drawn unobserved ones (so
// never-picked parties keep a route into the cohort, as the original
// algorithm's random placeholder gradients provide).
func (p *gradPool) pool(target int, r *rng.Source) []int {
	if !p.scaleMode {
		pool := make([]int, p.numParties)
		for i := range pool {
			pool[i] = i
		}
		return pool
	}
	size := gradPoolCap
	if size < 2*target {
		size = 2 * target
	}
	if size > p.numParties {
		size = p.numParties
	}
	pool := make([]int, 0, size)
	// Newest observations first: their gradients are freshest. The observed
	// list is in last-observation order with tombstones for moved entries.
	obsCap := size / 2
	for i := len(p.observed) - 1; i >= 0 && obsCap > 0; i-- {
		id := p.observed[i]
		if id < 0 {
			continue
		}
		pool = append(pool, id)
		p.inPool[id] = true
		obsCap--
	}
	// Top up uniformly from the rest of the fleet. Rejection sampling is
	// cheap while the pool is a vanishing fraction of the population; the
	// deterministic fallback walk guarantees termination regardless.
	for tries := 0; len(pool) < size && tries < 16*size; tries++ {
		id := r.Intn(p.numParties)
		if !p.inPool[id] {
			p.inPool[id] = true
			pool = append(pool, id)
		}
	}
	for id := 0; len(pool) < size && id < p.numParties; id++ {
		if !p.inPool[id] {
			p.inPool[id] = true
			pool = append(pool, id)
		}
	}
	for _, id := range pool {
		p.inPool[id] = false
	}
	return pool
}

// gradient returns the party's representation: its last observed update, or
// a random placeholder derived statelessly from (phSeed, id) — the same
// vector on every call, recomputed instead of cached so the fleet-scale
// memory bound stays O(observed·dim), not O(parties·dim).
func (p *gradPool) gradient(id int) tensor.Vec {
	if g := p.grads[id]; g != nil {
		return g
	}
	pr := rng.New(p.phSeed ^ (uint64(id)+1)*0xd1342543de82ef95)
	v := tensor.NewVec(p.gradDim)
	pr.Normals(v)
	return v
}

// observe stores the completed parties' updates as their current gradient
// representation. In fleet-scale mode the party moves to the back of the
// recency list (its slot tombstoned, compacted once tombstones dominate),
// so repeatedly re-selected parties keep their fresh gradients inside the
// pool's recency band.
func (p *gradPool) observe(fb fl.RoundFeedback) {
	for _, r := range fb.Completed {
		id := r.ID
		if len(r.Update) != p.gradDim {
			continue
		}
		p.grads[id] = r.Update.Clone()
		if !p.scaleMode {
			continue
		}
		if p.isObserved[id] {
			if p.obsPos[id] == len(p.observed)-1 {
				continue // already newest
			}
			p.observed[p.obsPos[id]] = -1
			p.tombstones++
		} else {
			p.isObserved[id] = true
		}
		p.obsPos[id] = len(p.observed)
		p.observed = append(p.observed, id)
		if p.tombstones > len(p.observed)/2 {
			p.compactObserved()
		}
	}
}

// compactObserved drops tombstones from the recency list, preserving order.
func (p *gradPool) compactObserved() {
	live := p.observed[:0]
	for _, id := range p.observed {
		if id < 0 {
			continue
		}
		p.obsPos[id] = len(live)
		live = append(live, id)
	}
	p.observed = live
	p.tombstones = 0
}
