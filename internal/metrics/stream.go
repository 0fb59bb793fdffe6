package metrics

// Stream is a single-pass accumulator of count and mean for series that
// cannot afford to retain one value per observation: the job server folds
// its latency and shard-locality gauges through it. Pushing n values costs
// O(1) memory.
//
// The zero value is an empty stream ready for use.
type Stream struct {
	n    int
	mean float64
}

// Push folds one observation into the stream.
func (s *Stream) Push(x float64) {
	s.n++
	s.mean += (x - s.mean) / float64(s.n)
}

// Count returns the number of observations pushed.
func (s *Stream) Count() int { return s.n }

// Mean returns the running mean (0 for an empty stream).
func (s *Stream) Mean() float64 { return s.mean }
