package fl

import (
	"fmt"
	"math"

	"flips/internal/tensor"
)

// ServerOptimizer applies the round's aggregated model delta to the global
// model (the OPTIMIZER of paper §2.1). Implementations may keep per-parameter
// state (FedAdagrad/FedAdam/FedYogi).
type ServerOptimizer interface {
	// Name identifies the FL algorithm family ("fedavg", "fedyogi", ...).
	Name() string
	// Apply mutates global in place given the weighted-average delta
	// x^(r) − m^(r) over the round's completed parties.
	Apply(global, delta tensor.Vec)
	// Reset clears optimizer state for a fresh FL job.
	Reset()
}

// FedAvg is the baseline server optimizer: m ← m + δ, i.e. the new global
// model is the weighted average of the participant models (McMahan et al.).
type FedAvg struct {
	// ServerLR scales the aggregated delta; 1 reproduces plain FedAvg.
	ServerLR float64
}

var _ ServerOptimizer = (*FedAvg)(nil)

// Name implements ServerOptimizer.
func (o *FedAvg) Name() string { return "fedavg" }

// Apply implements ServerOptimizer.
func (o *FedAvg) Apply(global, delta tensor.Vec) {
	lr := o.ServerLR
	if lr == 0 {
		lr = 1
	}
	global.Axpy(lr, delta)
}

// Reset implements ServerOptimizer.
func (o *FedAvg) Reset() {}

// AdaptiveKind distinguishes the three adaptive server optimizers of Reddi
// et al. ("Adaptive Federated Optimization"), which differ only in the
// second-moment update rule.
type AdaptiveKind int

const (
	// KindAdagrad accumulates v += δ².
	KindAdagrad AdaptiveKind = iota + 1
	// KindAdam uses an exponential moving average of δ².
	KindAdam
	// KindYogi uses the sign-controlled additive update that the paper's
	// headline algorithm FedYogi is built on.
	KindYogi
)

func (k AdaptiveKind) String() string {
	switch k {
	case KindAdagrad:
		return "fedadagrad"
	case KindAdam:
		return "fedadam"
	case KindYogi:
		return "fedyogi"
	default:
		return fmt.Sprintf("AdaptiveKind(%d)", int(k))
	}
}

// Adaptive implements FedAdagrad/FedAdam/FedYogi: the aggregated delta is a
// pseudo-gradient g, tracked with momentum m_t = β1 m_t + (1−β1) g and a
// per-parameter second moment v_t; the global update is
// m ← m + lr · m_t / (sqrt(v_t) + eps)  (paper §2.1, FedYogi paragraph).
type Adaptive struct {
	Kind  AdaptiveKind
	LR    float64 // server learning rate (default 0.1)
	Beta1 float64 // momentum (default 0.9)
	Beta2 float64 // second-moment decay (default 0.99)
	Eps   float64 // divide-by-zero guard (default 1e-3, per Reddi et al.)

	mt, vt tensor.Vec
}

var _ ServerOptimizer = (*Adaptive)(nil)

// NewFedYogi returns the FedYogi server optimizer with the defaults used in
// the paper's experiments.
func NewFedYogi() *Adaptive { return &Adaptive{Kind: KindYogi} }

// NewFedAdam returns the FedAdam server optimizer.
func NewFedAdam() *Adaptive { return &Adaptive{Kind: KindAdam} }

// NewFedAdagrad returns the FedAdagrad server optimizer.
func NewFedAdagrad() *Adaptive { return &Adaptive{Kind: KindAdagrad} }

// Name implements ServerOptimizer.
func (o *Adaptive) Name() string { return o.Kind.String() }

// Reset implements ServerOptimizer.
func (o *Adaptive) Reset() { o.mt, o.vt = nil, nil }

// Apply implements ServerOptimizer.
func (o *Adaptive) Apply(global, delta tensor.Vec) {
	lr, b1, b2, eps := o.LR, o.Beta1, o.Beta2, o.Eps
	if lr == 0 {
		lr = 0.1
	}
	if b1 == 0 {
		b1 = 0.9
	}
	if b2 == 0 {
		b2 = 0.99
	}
	if eps == 0 {
		eps = 1e-3
	}
	if o.mt == nil {
		o.mt = tensor.NewVec(len(global))
		o.vt = tensor.NewVec(len(global))
	}
	for i, g := range delta {
		o.mt[i] = b1*o.mt[i] + (1-b1)*g
		g2 := g * g
		switch o.Kind {
		case KindAdagrad:
			o.vt[i] += g2
		case KindAdam:
			o.vt[i] = b2*o.vt[i] + (1-b2)*g2
		case KindYogi:
			// v_t ← v_t − (1−β2)·g²·sign(v_t − g²): additive, sign-controlled
			// growth that is less sensitive to heavy-tailed pseudo-gradients.
			o.vt[i] -= (1 - b2) * g2 * sign(o.vt[i]-g2)
		}
		global[i] += lr * o.mt[i] / (math.Sqrt(math.Max(o.vt[i], 0)) + eps)
	}
}

func sign(x float64) float64 {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}

// WeightedAverageDeltaInto computes the FedAvg aggregation rule
// x^(r) = (1/N) Σ n_i x_i over the completed updates, as the delta from the
// current global parameters, into the caller-provided dst — the engine reuses
// one buffer across rounds instead of allocating a parameter-sized vector per
// round. weights are the per-update n_i; they are renormalized over whatever
// subset completed, so dropped stragglers simply vanish from the average
// (paper Algorithm 1 line 43).
//
// global, when non-nil, is subtracted from each update per coordinate (sync
// semantics: updates are raw trained parameters). nil means updates are
// already deltas x_i − m^(v_i), each taken against the model its party
// downloaded (async semantics: by fold time the global model has moved on, so
// subtracting the current one would be wrong): dst[i] = Σ_j (w_j/Σw) δ_j[i].
func WeightedAverageDeltaInto(dst, global tensor.Vec, updates []tensor.Vec, weights []float64) {
	meanDeltaRange(dst, global, updates, weights, totalWeight(weights), 0, len(dst))
}

// totalWeight sums a fold's weights in update order.
func totalWeight(weights []float64) float64 {
	var total float64
	for _, w := range weights {
		total += w
	}
	return total
}

// meanDeltaRange is the WeightedAverageDeltaInto fold over the coordinates
// [lo, hi): the range is zeroed, then accumulated update-major,
// coordinate-minor, so a coordinate sees the same operation sequence whatever
// range it is folded in. total is totalWeight(weights); zero (no updates, or
// none with weight) leaves the range zero.
func meanDeltaRange(dst, global tensor.Vec, updates []tensor.Vec, weights []float64, total float64, lo, hi int) {
	dst = dst[lo:hi]
	for i := range dst {
		dst[i] = 0
	}
	if total == 0 {
		return
	}
	for j, u := range updates {
		w := weights[j] / total
		u = u[lo:hi]
		if global == nil {
			for i := range dst {
				dst[i] += w * u[i]
			}
			continue
		}
		g := global[lo:hi]
		for i := range dst {
			dst[i] += w * (u[i] - g[i])
		}
	}
}
