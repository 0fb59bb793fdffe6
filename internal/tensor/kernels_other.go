//go:build !amd64

package tensor

// The kernels on every GOARCH but amd64, whose SSE2 versions in
// kernels_amd64.s compute the same chains lane by lane. Each product is
// rounded by an explicit conversion before it is added, so no compiler fuses
// it into a multiply-add (DESIGN.md, "Float-order preservation").

func axpy(v []float64, a float64, x []float64) {
	x = x[:len(v)]
	for j := range v {
		v[j] += float64(a * x[j])
	}
}

func axpy4(v []float64, a0, a1, a2, a3 float64, x0, x1, x2, x3 []float64) {
	n := len(v)
	x0, x1, x2, x3 = x0[:n], x1[:n], x2[:n], x3[:n]
	for j := range v {
		v[j] = (((v[j] + float64(a0*x0[j])) + float64(a1*x1[j])) + float64(a2*x2[j])) + float64(a3*x3[j])
	}
}

func mulVecT(dst, m, x []float64) {
	cols := len(dst)
	for j := range dst {
		dst[j] = 0
	}
	i := 0
	for ; i+4 <= len(x); i += 4 {
		r := m[i*cols : (i+4)*cols]
		axpy4(dst, x[i], x[i+1], x[i+2], x[i+3], r[:cols], r[cols:2*cols], r[2*cols:3*cols], r[3*cols:])
	}
	for ; i < len(x); i++ {
		axpy(dst, x[i], m[i*cols:(i+1)*cols])
	}
}

func mulVec4(d0, d1, d2, d3, m, x0, x1, x2, x3 []float64) {
	mat := Mat{Rows: len(d0), Cols: len(x0), Data: m}
	mat.MulVecInto(d0, x0)
	mat.MulVecInto(d1, x1)
	mat.MulVecInto(d2, x2)
	mat.MulVecInto(d3, x3)
}

func argmaxAffine4(c *[4]int, margin *[4]float64, m, b, x0, x1, x2, x3 []float64) {
	cols := len(x0)
	x1, x2, x3 = x1[:cols], x2[:cols], x3[:cols]
	var best [4]float64
	second := *margin
	for i, bi := range b {
		r := m[i*cols : (i+1)*cols]
		var s [4]float64
		for j, w := range r {
			s[0] += float64(w * x0[j])
			s[1] += float64(w * x1[j])
			s[2] += float64(w * x2[j])
			s[3] += float64(w * x3[j])
		}
		for k := range s {
			switch z := s[k] + bi; {
			case i == 0:
				best[k], c[k] = z, 0
			case z > best[k]:
				best[k], second[k], c[k] = z, best[k], i
			case z > second[k]:
				second[k] = z
			}
		}
	}
	for k := range best {
		margin[k] = best[k] - second[k]
	}
}
