package model

import (
	"math"

	"flips/internal/dataset"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// LogReg is multinomial logistic regression (a softmax linear classifier):
// logits = W x + b with W in R^{classes x dim}.
//
// Parameters live in a single flat backing vector; w and b are views sliced
// into it, so Params/SetParams are single-copy and TrainLocal can update the
// backing vector directly with no per-step copies (see DESIGN.md,
// "Performance model"). The logits scratch buffers make the forward pass
// allocation-free, which means one LogReg must not be shared across
// goroutines — clone per worker, as the FL engine and the sharded evaluator
// do.
type LogReg struct {
	dim, classes int
	params       tensor.Vec  // flat backing: [W row-major..., b...]
	w            *tensor.Mat // classes x dim, view into params
	b            tensor.Vec  // classes, view into params
	logitsBuf    tensor.Vec  // Predict's scratch, len classes
	// LossGradient's scratch, one logits (then dL/dz) slot per sample of a
	// block. Allocated by the first LossGradient and held by one pointer: a
	// clone made to Predict — the sharded evaluator makes thousands per job
	// — pays nothing for it.
	blk *[blockSize]tensor.Vec
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
	m.logitsBuf = tensor.NewVec(m.classes)
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
func (m *LogReg) NumParams() int { return m.classes*m.dim + m.classes }

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

// logits computes W x + b into z.
func (m *LogReg) logits(x, z tensor.Vec) {
	m.w.MulVecInto(z, x)
	z.AddInPlace(m.b)
}

// Predict returns the most likely class for x.
func (m *LogReg) Predict(x tensor.Vec) int {
	m.logits(x, m.logitsBuf)
	return m.logitsBuf.ArgMax()
}

// LossGradient writes the mean cross-entropy gradient over the batch into
// out, zeroed first, and returns the mean loss. The batch is walked in blocks
// of blockSize samples — logits, softmax and loss per sample in batch order,
// then one pass over the gradient for the whole block — which leaves every
// element's chain of products as a sample-at-a-time pass forms it (see
// MLP.LossGradient).
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
	if m.blk == nil {
		slots := blockScratch(m.classes)
		m.blk = &slots
	}
	wGrad := tensor.Mat{Rows: m.classes, Cols: m.dim, Data: out[:m.classes*m.dim]}
	bGrad := out[m.classes*m.dim:]
	count := float64(len(batch))
	inv := 1 / count
	var total float64
	var xs [blockSize]tensor.Vec
	for len(batch) > 0 {
		n := min(blockSize, len(batch))
		ps := m.blk[:n]
		for k, s := range batch[:n] {
			p := ps[k]
			m.logits(s.X, p)
			p.SoftmaxInPlace()
			total += -math.Log(math.Max(p[s.Y], 1e-12))
			p[s.Y] -= 1 // dL/dz = softmax - onehot
			xs[k] = s.X
		}
		wGrad.AddOuterInPlace(inv, ps, xs[:n])
		axpyEach(bGrad, inv, ps)
		batch = batch[n:]
	}
	return total / count
}
