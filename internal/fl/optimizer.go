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
		o.mt[i] = float64(b1*o.mt[i]) + float64((1-b1)*g)
		g2 := float64(g * g)
		switch o.Kind {
		case KindAdagrad:
			o.vt[i] += g2
		case KindAdam:
			o.vt[i] = float64(b2*o.vt[i]) + float64((1-b2)*g2)
		case KindYogi:
			// v_t ← v_t − (1−β2)·g²·sign(v_t − g²): additive, sign-controlled
			// growth that is less sensitive to heavy-tailed pseudo-gradients.
			o.vt[i] -= float64((1 - b2) * g2 * sign(o.vt[i]-g2))
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
