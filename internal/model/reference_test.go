package model

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
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

// referenceClassCounts is ClassCounts as it was before samples were scored in
// blocks: one forward pass per sample through MulVecInto — the logits
// Row(i).Dot(x) + b[i] — then the argmax, into scratch allocated once per
// call. The blocked scorer must pick every class it picks.
func referenceClassCounts(m Model, samples []dataset.Sample, numClasses int) (correct, total []int) {
	correct = make([]int, numClasses)
	total = make([]int, numClasses)
	predict := referencePredictor(m)
	for _, s := range samples {
		total[s.Y]++
		if c, _ := predict(s.X); c == s.Y {
			correct[s.Y]++
		}
	}
	return correct, total
}

// argMax returns the index of the largest logit, the first on a tie; a NaN
// never beats an earlier value. It is the argmax a per-sample forward pass
// took before the block scorer folded it into tensor.Mat.ArgMaxAffine4.
func argMax(z tensor.Vec) int {
	best, bi := z[0], 0
	for i := 1; i < len(z); i++ {
		if z[i] > best {
			best, bi = z[i], i
		}
	}
	return bi
}

// referenceMargin is class's logit less the largest other logit that a NaN
// does not displace, -Inf when that difference is NaN or ±Inf (with one
// class, or a NaN or infinite logit among the two).
func referenceMargin(z tensor.Vec, class int) float64 {
	second := math.Inf(-1)
	for i, v := range z {
		if i != class && v > second {
			second = v
		}
	}
	if m := z[class] - second; !math.IsNaN(m) && !math.IsInf(m, 0) {
		return m
	}
	return math.Inf(-1)
}

// referencePredictor returns the per-sample Predict of m, with its own
// scratch: a sample's class and margin.
func referencePredictor(m Model) func(x tensor.Vec) (int, float64) {
	switch m := m.(type) {
	case *LogReg:
		z := tensor.NewVec(m.classes)
		return func(x tensor.Vec) (int, float64) {
			m.w.MulVecInto(z, x)
			z.AddInPlace(m.b)
			c := argMax(z)
			return c, referenceMargin(z, c)
		}
	case *MLP:
		h, z := tensor.NewVec(m.hidden), tensor.NewVec(m.classes)
		return func(x tensor.Vec) (int, float64) {
			m.w1.MulVecInto(h, x)
			m.activate(h)
			m.w2.MulVecInto(z, h)
			z.AddInPlace(m.b2)
			c := argMax(z)
			return c, referenceMargin(z, c)
		}
	default:
		panic(fmt.Sprintf("no reference Predict for %T", m))
	}
}

// checkBlock requires PredictBlock's class and margin for each sample of
// block to be the per-sample pass's, and zeros past the block.
func checkBlock(t *testing.T, m Model, predict func(tensor.Vec) (int, float64), block []dataset.Sample, what string) {
	t.Helper()
	classes, margins := m.PredictBlock(block)
	for k := range classes {
		var want int
		var wantMargin float64
		if k < len(block) {
			want, wantMargin = predict(block[k].X)
		}
		if classes[k] != want || margins[k] != wantMargin {
			t.Fatalf("%s: sample %d of %d predicted %d margin %v, reference %d margin %v", what, k, len(block), classes[k], margins[k], want, wantMargin)
		}
	}
}

// checkClassCounts scores samples with ClassCounts and with the reference and
// requires the same counts, and the same class and margin from every
// PredictBlock call — with zeros past the block — as the per-sample pass.
func checkClassCounts(t *testing.T, m Model, samples []dataset.Sample, numClasses int, what string) {
	t.Helper()
	gotC, gotT := ClassCounts(m, samples, numClasses)
	wantC, wantT := referenceClassCounts(m, samples, numClasses)
	if !slices.Equal(gotC, wantC) || !slices.Equal(gotT, wantT) {
		t.Fatalf("%s: counts %v of %v, reference %v of %v", what, gotC, gotT, wantC, wantT)
	}
	predict := referencePredictor(m)
	for lo := 0; lo < len(samples); lo += BlockSize {
		checkBlock(t, m, predict, samples[lo:min(lo+BlockSize, len(samples))], fmt.Sprintf("%s, block at %d", what, lo))
	}
}

// TestClassCountsMatchesReference pins the blocked scorer to the per-sample
// one at the shapes the jobs evaluate — the ECG logistic regression (32→5)
// and FEMNIST's MLP (36→32→10) — for every test-set length modulo the block,
// on one model per shape reused across lengths: trained-looking parameters,
// an all-zero model whose logits all tie (every sample is class 0), and
// parameters salted with NaN and ±Inf, whose NaN logits the argmax must
// treat as the per-sample pass does.
func TestClassCountsMatchesReference(t *testing.T) {
	t.Parallel()
	salt := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	for _, shape := range [][3]int{{32, 0, 5}, {36, 32, 10}} {
		for _, params := range []string{"normal", "zero", "salted"} {
			r := rng.New(61)
			dim, hidden, classes := shape[0], shape[1], shape[2]
			var m Model = NewLogReg(dim, classes)
			if hidden > 0 {
				m = NewMLP(dim, hidden, classes, r.Split(1))
			}
			p := m.(flatModel).paramsRef()
			for i := range p {
				switch params {
				case "normal":
					p[i] = 0.3 * r.NormFloat64()
				case "zero":
					p[i] = 0
				case "salted":
					p[i] = r.NormFloat64()
					if r.Intn(10) == 0 {
						p[i] = salt[r.Intn(len(salt))]
					}
				}
			}
			for _, n := range []int{100, 0, 1, 2, 3, 4, 5, 6, 7, 8, 13, 1000} {
				samples := randomBatch(r, n, dim, classes)
				checkClassCounts(t, m, samples, classes, fmt.Sprintf("%T %v %s params, %d samples", m, shape, params, n))
			}
		}
	}
}

// FuzzClassCounts feeds both models arbitrary shapes, test-set lengths and
// float bit patterns — the fuzzer's bytes, eight to a word, as parameters and
// features — and requires the blocked scorer to pick every class the
// per-sample reference picks.
func FuzzClassCounts(f *testing.F) {
	f.Add([]byte{13, 32, 0, 5})
	f.Add([]byte{9, 36, 32, 10})
	f.Add([]byte{6, 3, 2, 4, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f, 0, 0, 0, 0, 0, 0, 0xf0, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		var head [4]int
		for i := range head {
			if i < len(data) {
				head[i] = int(data[i])
			}
		}
		data = data[min(len(head), len(data)):]
		n, dim, hidden, classes := head[0]%41, 1+head[1]%40, head[2]%34, 1+head[3]%12
		r := rng.New(67)
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
		params := m.(flatModel).paramsRef()
		for i := range params {
			params[i] = word()
		}
		samples := randomBatch(r, n, dim, classes)
		for _, s := range samples {
			for j := range s.X {
				s.X[j] = word()
			}
		}
		checkClassCounts(t, m, samples, classes, fmt.Sprintf("%T dim %d hidden %d classes %d samples %d", m, dim, hidden, classes, n))
	})
}

// FuzzPredictBlock scores one block of one to four samples with each model
// and requires the per-sample reference's class for each sample, and zeros
// past the block. Every parameter and feature is one fuzzer byte indexed
// into a palette of values that collide — signed zeros, ±Inf, NaN, a
// subnormal, ±MaxFloat64 and a few small integers — so exact ties between
// logits, NaN logits and tails that pad spare lanes are the common case.
func FuzzPredictBlock(f *testing.F) {
	f.Add([]byte{3, 4, 0, 3})
	f.Add([]byte{0, 3, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11})
	f.Add([]byte{2, 2, 2, 2, 7, 7, 7, 7, 0, 1, 0, 1, 8, 8})
	palette := []float64{
		0, math.Copysign(0, -1), 1, -1, 2, 0.5, math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64,
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var head [4]int
		for i := range head {
			if i < len(data) {
				head[i] = int(data[i])
			}
		}
		data = data[min(len(head), len(data)):]
		n, dim, hidden, classes := 1+head[0]%BlockSize, 1+head[1]%6, head[2]%5, 1+head[3]%7
		word := func() float64 {
			if len(data) == 0 {
				return 0
			}
			w := palette[int(data[0])%len(palette)]
			data = data[1:]
			return w
		}
		var m Model = NewLogReg(dim, classes)
		if hidden > 0 {
			m = NewMLP(dim, hidden, classes, rng.New(73))
		}
		params := m.(flatModel).paramsRef()
		for i := range params {
			params[i] = word()
		}
		block := make([]dataset.Sample, n)
		for k := range block {
			block[k].X = tensor.NewVec(dim)
			for j := range block[k].X {
				block[k].X[j] = word()
			}
		}
		checkBlock(t, m, referencePredictor(m), block, fmt.Sprintf("%T dim %d hidden %d classes %d (params %v)", m, dim, hidden, classes, params))
	})
}
