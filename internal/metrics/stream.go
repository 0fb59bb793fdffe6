package metrics

import "math"

// Stream is a single-pass (Welford) accumulator of count, mean, variance,
// min and max — the streaming counterpart of Summarize for fleet-scale runs
// that cannot afford to retain one value per observation. Pushing n values
// costs O(1) memory; the scale sweep uses it to fold per-repeat throughput
// and per-round statistics without materializing sample slices.
//
// The zero value is an empty stream ready for use.
type Stream struct {
	n        int
	mean, m2 float64
	min, max float64
}

// Push folds one observation into the stream.
func (s *Stream) Push(x float64) {
	s.n++
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Count returns the number of observations pushed.
func (s *Stream) Count() int { return s.n }

// Mean returns the running mean (0 for an empty stream).
func (s *Stream) Mean() float64 { return s.mean }

// Std returns the sample standard deviation (0 with fewer than two
// observations), matching Summarize's convention.
func (s *Stream) Std() float64 {
	if s.n < 2 {
		return 0
	}
	return math.Sqrt(s.m2 / float64(s.n-1))
}

// Min returns the smallest observation (0 for an empty stream).
func (s *Stream) Min() float64 { return s.min }

// Max returns the largest observation (0 for an empty stream).
func (s *Stream) Max() float64 { return s.max }
