package model

import (
	"math"

	"flips/internal/dataset"
	"flips/internal/fmath"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// LogReg is multinomial logistic regression (a softmax linear classifier):
// logits = W x + b with W in R^{classes x dim}.
//
// Parameters live in a single flat backing vector; w and b are views sliced
// into it, so Params/SetParams are single-copy and TrainLocal can update the
// backing vector directly with no per-step copies (see DESIGN.md,
// "Performance model"). The logits scratch makes the forward pass
// allocation-free, which means one LogReg must not be shared across
// goroutines — clone per worker, as the FL engine and the evaluator do.
type LogReg struct {
	dim, classes int
	params       tensor.Vec  // flat backing: [W row-major..., b...]
	w            *tensor.Mat // classes x dim, view into params
	b            tensor.Vec  // classes, view into params
	// LossGradient's block scratch: one logits (then dL/dz) slot per sample
	// of a block, cut from one allocation made by the first call. A clone
	// allocates nothing for it until it trains; PredictBlock needs none.
	blk [BlockSize]tensor.Vec
}

var _ Model = (*LogReg)(nil)
var _ flatModel = (*LogReg)(nil)

// NewLogReg returns a zero-initialized logistic regression model. Zero
// initialization is exactly optimal-symmetric for the convex softmax loss,
// so no randomness is needed.
func NewLogReg(dim, classes int) *LogReg {
	m := &LogReg{dim: dim, classes: classes}
	m.bind(tensor.NewVec(classes*dim + classes))
	return m
}

// bind installs backing as the parameter vector and re-slices the views.
func (m *LogReg) bind(backing tensor.Vec) {
	m.params = backing
	m.w = &tensor.Mat{Rows: m.classes, Cols: m.dim, Data: backing[:m.classes*m.dim]}
	m.b = backing[m.classes*m.dim:]
}

// LogRegFactory adapts NewLogReg to the Factory signature.
func LogRegFactory(dim, classes int) Factory {
	return func(*rng.Source) Model { return NewLogReg(dim, classes) }
}

// Clone returns a deep copy with its own backing vector and scratch.
func (m *LogReg) Clone() Model {
	c := &LogReg{dim: m.dim, classes: m.classes}
	c.bind(m.params.Clone())
	return c
}

// NumParams returns classes*dim + classes.
func (m *LogReg) NumParams() int { return LogRegParams(m.dim, m.classes) }

// LogRegParams is the parameter count of a dim → classes logistic
// regression, known before one is built.
func LogRegParams(dim, classes int) int { return classes*dim + classes }

// Params returns a copy of [W row-major..., b...].
func (m *LogReg) Params() tensor.Vec { return m.params.Clone() }

// SetParams overwrites W and b from a flat vector.
func (m *LogReg) SetParams(p tensor.Vec) {
	if len(p) != m.NumParams() {
		panic("model: LogReg.SetParams length mismatch")
	}
	copy(m.params, p)
}

// paramsRef implements flatModel: the live backing vector.
func (m *LogReg) paramsRef() tensor.Vec { return m.params }

// block returns the block scratch, allocating it on first use.
func (m *LogReg) block() *[BlockSize]tensor.Vec {
	if m.blk[0] == nil {
		m.blk = blockScratch(m.classes)
	}
	return &m.blk
}

// PredictBlock returns the most likely class of each sample of block and its
// margin: the argmax of its logits W x + b, in one ArgMaxAffine4 pass over W.
func (m *LogReg) PredictBlock(block []dataset.Sample) ([BlockSize]int, [BlockSize]float64) {
	var xs [BlockSize]tensor.Vec
	features(&xs, block)
	return classify(m.w, m.b, &xs, len(block))
}

// Bounds implements bounded. A logit moves by at most max_c ‖ΔW_c‖₂·‖x‖₂ +
// max_c |Δb_c| (Cauchy–Schwarz); a computed one, d products summed from +0
// and the bias added, sits within γ_{d+1}(max_c ‖W_c‖₂·‖x‖₂ + max_c |b_c|) of
// the exact one, plus d+1 underflows; and no partial sum exceeds twice that
// sum in magnitude.
func (m *LogReg) Bounds(prev tensor.Vec) Bounds {
	wn, bn := rowNormUp(m.w, nil), absMaxUp(m.b, nil)
	g := gammaUp(m.dim + 1)
	bd := Bounds{
		Drift: Affine{math.Inf(1), math.Inf(1)},
		Round: Affine{mulUp(g, wn), addUp(mulUp(g, bn), tiny(m.dim+1))},
		Size:  Affine{2 * wn, 2 * bn},
	}
	if prev != nil {
		nw := m.classes * m.dim
		bd.Drift = Affine{rowNormUp(m.w, &tensor.Mat{Rows: m.classes, Cols: m.dim, Data: prev[:nw]}), absMaxUp(m.b, prev[nw:])}
	}
	return bd
}

// LossGradient writes the mean cross-entropy gradient over the batch into
// out, zeroed first, and returns the mean loss. The batch is walked in blocks
// of BlockSize samples — the block's logits (one MulVec4Into for a full
// block), softmax and loss per sample in batch order, then one pass over the
// gradient for the whole block — which leaves every element's chain of
// products as a sample-at-a-time pass forms it (see MLP.LossGradient).
func (m *LogReg) LossGradient(batch []dataset.Sample, out tensor.Vec) float64 {
	if len(out) != m.NumParams() {
		panic("model: LogReg.LossGradient length mismatch")
	}
	for i := range out {
		out[i] = 0
	}
	if len(batch) == 0 {
		return 0
	}
	blk := m.block()
	wGrad := tensor.Mat{Rows: m.classes, Cols: m.dim, Data: out[:m.classes*m.dim]}
	bGrad := out[m.classes*m.dim:]
	count := float64(len(batch))
	inv := 1 / count
	var total float64
	var xs [BlockSize]tensor.Vec
	for len(batch) > 0 {
		n := min(BlockSize, len(batch))
		ps := blk[:n]
		forwardBlock(m.w, m.b, ps, features(&xs, batch[:n]))
		for k, s := range batch[:n] {
			p := ps[k]
			p.SoftmaxInPlace()
			total += -fmath.Log(math.Max(p[s.Y], 1e-12))
			p[s.Y] -= 1 // dL/dz = softmax - onehot
		}
		wGrad.AddOuterInPlace(inv, ps, xs[:n])
		axpyEach(bGrad, inv, ps)
		batch = batch[n:]
	}
	return total / count
}
