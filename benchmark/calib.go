package main

import (
	"time"
)

// The reference box is two shared vCPUs whose speed steps between two levels
// about 35% apart and stays at one for seconds to minutes (README.md,
// "Steadiness"): a run's timings then say which level the host was on, not
// what the program did. A calibrator times a fixed arithmetic kernel at a
// fixed period while a pass or a set-up runs; the timed end-to-end metrics are
// reported at the kernel's nominal speed, which takes the host's level out of
// them. The kernel lives here, so no change to the program under test can
// move it.
const (
	calibPassPeriod  = 25 * time.Millisecond // a pass lasts seconds
	calibSetupPeriod = 5 * time.Millisecond  // a set-up may last 10 ms
	calibLen         = 2048                  // float64s per vector: both fit the L1 cache
	calibReps        = 100                   // sweeps per sample: 204800 dependent multiply-adds
	// calibNominal is the kernel's time at factor 1, in seconds: what the
	// reference box takes on its faster level, so that the reported times
	// are those of the quiet reference box.
	calibNominal = 0.25e-3
)

// calibrator samples the kernel on its own goroutine until stopped.
type calibrator struct {
	stop, done chan struct{}
	x, y       []float64
	sink       float64
	samples    []float64 // seconds per kernel, one per period
}

func startCalibrator(period time.Duration) *calibrator {
	c := &calibrator{
		stop: make(chan struct{}), done: make(chan struct{}),
		x: make([]float64, calibLen), y: make([]float64, calibLen),
		samples: make([]float64, 0, 1024),
	}
	for i := range c.x {
		c.x[i] = float64(i) * 1e-6
	}
	go func() {
		defer close(c.done)
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			// The faster of two back-to-back kernels: one of them may have
			// been descheduled, the host's level outlasts both.
			a, b := c.kernel(), c.kernel()
			c.samples = append(c.samples, min(a, b))
			select {
			case <-c.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return c
}

// kernel runs the fixed work once and returns its wall time in seconds.
func (c *calibrator) kernel() float64 {
	start := time.Now()
	acc := 0.0
	for r := 0; r < calibReps; r++ {
		for i, x := range c.x {
			c.y[i] += 0.5 * x
			acc += c.y[i] * x
		}
	}
	c.sink += acc
	return time.Since(start).Seconds()
}

// factor stops the sampling and returns how slow the host ran during it:
// the mean kernel time over the nominal one (the mean, not the median — a
// pass's wall integrates the time spent on each level, and so does the mean).
// Samples over three times the median were descheduled twice and are left
// out. It also returns the number of samples kept.
func (c *calibrator) factor() (float64, int) {
	close(c.stop)
	<-c.done
	limit := 3 * median(append([]float64(nil), c.samples...))
	var sum float64
	var n int
	for _, s := range c.samples {
		if s <= limit {
			sum += s
			n++
		}
	}
	return sum / float64(n) / calibNominal, n
}
