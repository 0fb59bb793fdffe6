package rng

// polarTransform sets dst[i] = polar(dst[i], s[i]) for every i: the SSE2
// kernel in kernels_amd64.s. The caller passes len(s) == len(dst). Without
// go:noescape both slices would escape to the heap at each call site.
//
//go:noescape
func polarTransform(dst, s []float64)
