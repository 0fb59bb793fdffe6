package metrics

import (
	"math"
	"testing"
)

// Summary holds order statistics over repeated measurements.
type Summary struct {
	N                   int
	Mean, Std, Min, Max float64
}

// summary reads the stream's statistics into the Summary shape Summarize
// produces.
func summary(s *Stream) Summary {
	return Summary{N: s.n, Mean: s.Mean(), Std: s.Std(), Min: s.Min(), Max: s.Max()}
}

// Summarize is the two-pass reference the single-pass Stream is held to
// (sample standard deviation).
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.Min, s.Max = xs[0], xs[0]
	var sum float64
	for _, x := range xs {
		sum += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = sum / float64(len(xs))
	if len(xs) > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.Std = math.Sqrt(ss / float64(len(xs)-1))
	}
	return s
}

func TestStreamMatchesSummarize(t *testing.T) {
	t.Parallel()
	cases := [][]float64{
		nil,
		{3.5},
		{1, 2, 3, 4, 5},
		{-2, 0, 7.25, 1e6, -13, 0.5},
	}
	for _, xs := range cases {
		var s Stream
		for _, x := range xs {
			s.Push(x)
		}
		want := Summarize(xs)
		got := summary(&s)
		if got.N != want.N || !approxEq(got.Mean, want.Mean) || !approxEq(got.Std, want.Std) ||
			got.Min != want.Min || got.Max != want.Max {
			t.Fatalf("stream summary %+v diverges from Summarize %+v for %v", got, want, xs)
		}
	}
}

func TestStreamConstantSeries(t *testing.T) {
	t.Parallel()
	var s Stream
	for i := 0; i < 1000; i++ {
		s.Push(42)
	}
	if s.Mean() != 42 || s.Std() != 0 || s.Min() != 42 || s.Max() != 42 || s.Count() != 1000 {
		t.Fatalf("constant stream: %+v", summary(&s))
	}
}

func approxEq(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
