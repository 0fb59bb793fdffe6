package tensor

// The SSE2 kernels in kernels_amd64.s. Without go:noescape every slice
// argument would escape to the heap at each call site.

//go:noescape
func axpy(v []float64, a float64, x []float64)

//go:noescape
func axpy4(v []float64, a0, a1, a2, a3 float64, x0, x1, x2, x3 []float64)

//go:noescape
func mulVecT(dst, m, x []float64)

//go:noescape
func mulVec4(d0, d1, d2, d3, m, x0, x1, x2, x3 []float64)

//go:noescape
func argmaxAffine4(c *[4]int, margin *[4]float64, m, b, x0, x1, x2, x3 []float64)
