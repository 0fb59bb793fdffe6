package model

import (
	"math"

	"flips/internal/dataset"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// MLP is a one-hidden-layer perceptron with ReLU activation:
// logits = W2 · relu(W1 x + b1) + b2. It stands in for the paper's small
// CNNs (LeNet-5, 1-D CNN) on our synthetic feature vectors.
//
// Like LogReg, all layers live in one flat backing vector with matrix/vector
// views sliced into it, and the forward/backward scratch buffers are reused
// across calls. One MLP must therefore not be shared across goroutines —
// clone per worker.
type MLP struct {
	dim, hidden, classes int
	params               tensor.Vec  // flat backing: [W1..., b1..., W2..., b2...]
	w1                   *tensor.Mat // hidden x dim, view into params
	b1                   tensor.Vec  // hidden, view
	w2                   *tensor.Mat // classes x hidden, view
	b2                   tensor.Vec  // classes, view
	hBuf, zBuf           tensor.Vec  // Predict's scratch: hidden, logits
	blk                  *mlpBlock   // LossGradient's scratch
}

// mlpBlock is LossGradient's scratch, one slot per sample of a block: hidden
// activations, logits (then dL/dlogits) and dL/dh. It is allocated by the
// first LossGradient and hangs off the model by one pointer, so a clone made
// to Predict — the sharded evaluator makes thousands per job — pays nothing
// for it.
type mlpBlock struct {
	h, z, dh [blockSize]tensor.Vec
}

var _ Model = (*MLP)(nil)
var _ flatModel = (*MLP)(nil)

// NewMLP returns an MLP with He-style Gaussian initialization drawn from r.
func NewMLP(dim, hidden, classes int, r *rng.Source) *MLP {
	m := &MLP{dim: dim, hidden: hidden, classes: classes}
	m.bind(tensor.NewVec(hidden*dim + hidden + classes*hidden + classes))
	scale1 := math.Sqrt(2 / float64(dim))
	for i := range m.w1.Data {
		m.w1.Data[i] = scale1 * r.NormFloat64()
	}
	scale2 := math.Sqrt(2 / float64(hidden))
	for i := range m.w2.Data {
		m.w2.Data[i] = scale2 * r.NormFloat64()
	}
	return m
}

// bind installs backing as the parameter vector and re-slices the views.
func (m *MLP) bind(backing tensor.Vec) {
	m.params = backing
	pos := 0
	m.w1 = &tensor.Mat{Rows: m.hidden, Cols: m.dim, Data: backing[pos : pos+m.hidden*m.dim]}
	pos += m.hidden * m.dim
	m.b1 = backing[pos : pos+m.hidden]
	pos += m.hidden
	m.w2 = &tensor.Mat{Rows: m.classes, Cols: m.hidden, Data: backing[pos : pos+m.classes*m.hidden]}
	pos += m.classes * m.hidden
	m.b2 = backing[pos:]
	m.hBuf = tensor.NewVec(m.hidden)
	m.zBuf = tensor.NewVec(m.classes)
}

// MLPFactory adapts NewMLP to the Factory signature.
func MLPFactory(dim, hidden, classes int) Factory {
	return func(r *rng.Source) Model { return NewMLP(dim, hidden, classes, r) }
}

// Clone returns a deep copy with its own backing vector and scratch.
func (m *MLP) Clone() Model {
	c := &MLP{dim: m.dim, hidden: m.hidden, classes: m.classes}
	c.bind(m.params.Clone())
	return c
}

// NumParams returns the total parameter count.
func (m *MLP) NumParams() int {
	return m.hidden*m.dim + m.hidden + m.classes*m.hidden + m.classes
}

// Params returns a copy of [W1..., b1..., W2..., b2...].
func (m *MLP) Params() tensor.Vec { return m.params.Clone() }

// SetParams overwrites all layers from a flat vector.
func (m *MLP) SetParams(p tensor.Vec) {
	if len(p) != m.NumParams() {
		panic("model: MLP.SetParams length mismatch")
	}
	copy(m.params, p)
}

// paramsRef implements flatModel: the live backing vector.
func (m *MLP) paramsRef() tensor.Vec { return m.params }

// forward computes hidden activations and logits into h and z.
func (m *MLP) forward(x, h, z tensor.Vec) {
	m.w1.MulVecInto(h, x)
	for i, b := range m.b1 {
		h[i] = max(h[i]+b, 0) // ReLU, without a branch to mispredict; a NaN stays a NaN
	}
	m.w2.MulVecInto(z, h)
	z.AddInPlace(m.b2)
}

// Predict returns the most likely class for x.
func (m *MLP) Predict(x tensor.Vec) int {
	m.forward(x, m.hBuf, m.zBuf)
	return m.zBuf.ArgMax()
}

// LossGradient writes the mean cross-entropy gradient (backprop) over the
// batch into out, zeroed first, and returns the mean loss. The batch is
// walked in blocks of blockSize samples: forward pass, softmax and loss per
// sample in batch order, then one pass over each gradient matrix for the
// whole block (tensor.Mat.AddOuterInPlace). Every gradient element still adds
// its per-sample products in batch order from +0, so the result is bit-equal
// to a sample-at-a-time backward pass (DESIGN.md, "Float-order preservation").
func (m *MLP) LossGradient(batch []dataset.Sample, out tensor.Vec) float64 {
	if len(out) != m.NumParams() {
		panic("model: MLP.LossGradient length mismatch")
	}
	for i := range out {
		out[i] = 0
	}
	if len(batch) == 0 {
		return 0
	}
	if m.blk == nil {
		m.blk = &mlpBlock{h: blockScratch(m.hidden), z: blockScratch(m.classes), dh: blockScratch(m.hidden)}
	}
	pos := 0
	w1g := tensor.Mat{Rows: m.hidden, Cols: m.dim, Data: out[pos : pos+len(m.w1.Data)]}
	pos += len(m.w1.Data)
	b1g := out[pos : pos+len(m.b1)]
	pos += len(m.b1)
	w2g := tensor.Mat{Rows: m.classes, Cols: m.hidden, Data: out[pos : pos+len(m.w2.Data)]}
	pos += len(m.w2.Data)
	b2g := out[pos:]

	count := float64(len(batch))
	inv := 1 / count
	var total float64
	var xs [blockSize]tensor.Vec
	for len(batch) > 0 {
		n := min(blockSize, len(batch))
		hs, zs, dhs := m.blk.h[:n], m.blk.z[:n], m.blk.dh[:n]
		for k, s := range batch[:n] {
			h, z, dh := hs[k], zs[k], dhs[k]
			m.forward(s.X, h, z)
			z.SoftmaxInPlace()
			total += -math.Log(math.Max(z[s.Y], 1e-12))
			z[s.Y] -= 1 // dL/dlogits

			// Backprop through ReLU: dh[i] = 0 where the unit is off. Half the
			// units are, in no pattern, so the choice is made on the word's
			// bits — which compiles to a conditional move — not by a branch.
			m.w2.MulVecTInto(dh, z)
			for i := range dh {
				bits := math.Float64bits(dh[i])
				if h[i] <= 0 {
					bits = 0
				}
				dh[i] = math.Float64frombits(bits)
			}
			xs[k] = s.X
		}
		w2g.AddOuterInPlace(inv, zs, hs)
		axpyEach(b2g, inv, zs)
		w1g.AddOuterInPlace(inv, dhs, xs[:n])
		axpyEach(b1g, inv, dhs)
		batch = batch[n:]
	}
	return total / count
}
