package model

import (
	"encoding/binary"
	"fmt"
	"math"
	"testing"

	"flips/internal/dataset"
	"flips/internal/rng"
	"flips/internal/tensor"
)

// referenceLossGradient is the sample-at-a-time LossGradient of both built-in
// models, restated from the kernels' own definitions: a matrix-vector product
// is Row(i).Dot per row, a transpose product and a rank-1 update are one Axpy
// per row, and every sample walks the whole gradient. It is the float order
// the goldens were recorded under and the one the blocked implementations
// must reproduce word for word.
func referenceLossGradient(m Model, batch []dataset.Sample, out tensor.Vec) float64 {
	for i := range out {
		out[i] = 0
	}
	if len(batch) == 0 {
		return 0
	}
	inv := 1 / float64(len(batch))
	var total float64
	switch m := m.(type) {
	case *LogReg:
		wGrad := tensor.Mat{Rows: m.classes, Cols: m.dim, Data: out[:m.classes*m.dim]}
		bGrad := out[m.classes*m.dim:]
		p := tensor.NewVec(m.classes)
		for _, s := range batch {
			for i := range p {
				p[i] = m.w.Row(i).Dot(s.X)
				p[i] += m.b[i]
			}
			p.SoftmaxInPlace()
			total += -math.Log(math.Max(p[s.Y], 1e-12))
			p[s.Y] -= 1
			for i := range p {
				wGrad.Row(i).Axpy(inv*p[i], s.X)
			}
			bGrad.Axpy(inv, p)
		}
	case *MLP:
		pos := 0
		w1g := tensor.Mat{Rows: m.hidden, Cols: m.dim, Data: out[pos : pos+len(m.w1.Data)]}
		pos += len(m.w1.Data)
		b1g := out[pos : pos+len(m.b1)]
		pos += len(m.b1)
		w2g := tensor.Mat{Rows: m.classes, Cols: m.hidden, Data: out[pos : pos+len(m.w2.Data)]}
		pos += len(m.w2.Data)
		b2g := out[pos:]
		h, z, dh := tensor.NewVec(m.hidden), tensor.NewVec(m.classes), tensor.NewVec(m.hidden)
		for _, s := range batch {
			for i := range h {
				h[i] = m.w1.Row(i).Dot(s.X)
				h[i] += m.b1[i]
			}
			for i := range h {
				if h[i] < 0 {
					h[i] = 0
				}
			}
			for i := range z {
				z[i] = m.w2.Row(i).Dot(h)
				z[i] += m.b2[i]
			}
			z.SoftmaxInPlace()
			total += -math.Log(math.Max(z[s.Y], 1e-12))
			z[s.Y] -= 1
			for i := range z {
				w2g.Row(i).Axpy(inv*z[i], h)
			}
			b2g.Axpy(inv, z)
			for i := range dh {
				dh[i] = 0
			}
			for i := range z {
				dh.Axpy(z[i], m.w2.Row(i))
			}
			for i := range dh {
				if h[i] <= 0 {
					dh[i] = 0
				}
			}
			for i := range dh {
				w1g.Row(i).Axpy(inv*dh[i], s.X)
			}
			b1g.Axpy(inv, dh)
		}
	default:
		panic(fmt.Sprintf("no reference LossGradient for %T", m))
	}
	return total / float64(len(batch))
}

// sameWord reports whether a and b are the same float64 bit pattern, signed
// zeros and subnormals included. Two NaNs count as equal: which operand's
// sign and payload an add of two NaNs keeps is the instruction's operand
// order, which the register allocator picks, not the source — and no digest
// can tell, a non-finite loss fails its job before anything is hashed.
func sameWord(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkAgainstReference runs m.LossGradient and the reference on the batch,
// the blocked side into an out pre-filled with garbage, and compares the loss
// and every gradient word.
func checkAgainstReference(t *testing.T, m Model, batch []dataset.Sample, what string) {
	t.Helper()
	got, want := tensor.NewVec(m.NumParams()), tensor.NewVec(m.NumParams())
	for i := range got {
		got[i] = -1e300 // a word left unwritten, or accumulated into, shows
	}
	gotLoss := m.LossGradient(batch, got)
	wantLoss := referenceLossGradient(m, batch, want)
	if !sameWord(gotLoss, wantLoss) {
		t.Fatalf("%s: loss %v (%#x), reference %v (%#x)", what,
			gotLoss, math.Float64bits(gotLoss), wantLoss, math.Float64bits(wantLoss))
	}
	for i := range got {
		if !sameWord(got[i], want[i]) {
			t.Fatalf("%s: grad[%d] = %v (%#x), reference %v (%#x)", what,
				i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestLossGradientMatchesPerSampleReference pins the sample-blocked backward
// pass of both models to the per-sample one, word for word: every tail length
// on either side of a block, the shapes the jobs run plus degenerate ones,
// plain data and data salted — features and parameters — with signed zeros,
// subnormals, infinities and NaN, and one model per shape reused across all
// the batch sizes so that a slot left over from a longer block would show.
func TestLossGradientMatchesPerSampleReference(t *testing.T) {
	t.Parallel()
	salt := []float64{
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040,
	}
	sizes := []int{33, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 32, 15, 16, 17, 31, 2, 16}
	for _, shape := range [][3]int{{36, 32, 10}, {32, 0, 5}, {64, 32, 8}, {7, 9, 11}, {5, 3, 2}, {3, 1, 2}, {3, 0, 2}} {
		for _, salted := range []bool{false, true} {
			r := rng.New(53)
			fill := func(v tensor.Vec) {
				for i := range v {
					v[i] = r.NormFloat64()
					if salted && r.Intn(12) == 0 {
						v[i] = salt[r.Intn(len(salt))]
					}
				}
			}
			dim, hidden, classes := shape[0], shape[1], shape[2]
			var m Model = NewLogReg(dim, classes)
			if hidden > 0 {
				m = NewMLP(dim, hidden, classes, r.Split(1))
			}
			for _, n := range sizes {
				fill(m.(flatModel).paramsRef())
				batch := randomBatch(r, n, dim, classes)
				for _, s := range batch {
					fill(s.X)
				}
				checkAgainstReference(t, m, batch, fmt.Sprintf("%T %v salted=%v batch %d", m, shape, salted, n))
			}
		}
	}
}

// FuzzLossGradientBlocks feeds both models arbitrary shapes, batch sizes and
// float bit patterns — the fuzzer's bytes, eight to a word, as parameters and
// features — and requires the blocked LossGradient and the per-sample
// reference to agree word for word.
func FuzzLossGradientBlocks(f *testing.F) {
	f.Add([]byte{16, 36, 32, 10})
	f.Add([]byte{5, 3, 0, 2, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0x80})
	f.Add([]byte{7, 2, 1, 3, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f, 1, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var head [4]int
		for i := range head {
			if i < len(data) {
				head[i] = int(data[i])
			}
		}
		data = data[min(len(head), len(data)):]
		n, dim, hidden, classes := head[0]%41, 1+head[1]%40, head[2]%34, 1+head[3]%12
		// Words come from the fuzzer's bytes while they last, then from a
		// fixed stream, so a short input still trains a full model.
		r := rng.New(59)
		word := func() float64 {
			if len(data) >= 8 {
				w := binary.LittleEndian.Uint64(data)
				data = data[8:]
				return math.Float64frombits(w)
			}
			return r.NormFloat64()
		}
		var m Model = NewLogReg(dim, classes)
		if hidden > 0 {
			m = NewMLP(dim, hidden, classes, r.Split(1))
		}
		batch := randomBatch(r, n, dim, classes)
		for _, s := range batch {
			for j := range s.X {
				s.X[j] = word()
			}
		}
		params := m.(flatModel).paramsRef()
		for i := range params {
			params[i] = word()
		}
		checkAgainstReference(t, m, batch, fmt.Sprintf("%T dim %d hidden %d classes %d batch %d", m, dim, hidden, classes, n))
		// A second, shorter batch on the same model: its block scratch is warm.
		checkAgainstReference(t, m, batch[:n/3], "warm model, shorter batch")
	})
}
