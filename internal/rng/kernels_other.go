//go:build !amd64

package rng

// polarTransform sets dst[i] = polar(dst[i], s[i]) for every i. On amd64 it
// is the SSE2 kernel in kernels_amd64.s, which computes the same chain lane
// by lane.
func polarTransform(dst, s []float64) {
	s = s[:len(dst)]
	for i, u := range dst {
		dst[i] = polar(u, s[i])
	}
}
