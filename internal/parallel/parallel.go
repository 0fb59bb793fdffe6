// Package parallel provides the bounded worker pool the FLIPS simulator uses
// to run independent units of work — per-party local training, test-set
// evaluation shards, experiment grid cells — concurrently without giving up
// determinism.
//
// The determinism contract every caller relies on: work items are identified
// by index, results are deposited into index-addressed storage, and any
// order-sensitive reduction happens sequentially after the pool drains. The
// pool itself guarantees only that every index in [0, n) is processed exactly
// once; it makes no ordering promise between workers, which is why callers
// must never fold results in completion order.
//
// A panic in a work item is not lost on a worker goroutine: the call
// re-raises it on its caller as one *panicError carrying the value and the
// panicking stack, however many pools it crossed on the way out.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Pool is a reusable bounded worker pool. The zero value is equivalent to
// New(0): a GOMAXPROCS-wide pool. A Pool is safe for concurrent use and
// carries no per-run state, so one Pool can serve many ForEach/Map calls.
type Pool struct {
	width int
}

// New returns a pool running at most width workers concurrently. A width
// of zero or less selects runtime.GOMAXPROCS(0), the "as fast as the
// hardware allows" default.
func New(width int) *Pool {
	return &Pool{width: width}
}

// Width reports the pool's concurrency bound.
func (p *Pool) Width() int {
	if p.width <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p.width
}

// panicError carries a worker panic (with its stack) to the caller's
// goroutine so a failure inside the pool is not silently swallowed.
type panicError struct {
	value any
	stack []byte
}

func (e *panicError) Error() string {
	return fmt.Sprintf("parallel: worker panic: %v\n%s", e.value, e.stack)
}

// ForEach invokes fn(i) for every i in [0, n), running at most Width()
// invocations concurrently, one of them on the caller's goroutine. It blocks
// until all invocations return. If any invocation panics, ForEach re-panics
// in the caller's goroutine with a *panicError wrapping the first observed
// panic value (a *panicError from a nested pool is re-raised as is, not
// wrapped again); remaining items may be skipped once a panic is observed.
//
// When the pool width is 1 (or n <= 1), fn runs on the caller's goroutine in
// index order — the exact sequential semantics, with no goroutine overhead.
func (p *Pool) ForEach(n int, fn func(i int)) {
	p.ForEachWorker(n, func(_, i int) { fn(i) })
}

// ForEachWorker is ForEach with worker identity: fn(worker, i) where worker
// in [0, min(Width(), n)) names the worker executing the item. Two items
// given the same worker id never run concurrently, so callers can key
// reusable scratch state (model replicas, buffers) by worker id instead of
// allocating per item. Work distribution across workers is unspecified —
// results must not depend on which worker processed which item.
//
// The caller is one of the workers: a call of W = min(Width(), n) workers
// starts W-1 goroutines and runs the last worker id itself, so the calling
// goroutine runs items instead of parking until the others finish. At
// W == 1 nothing is started and everything runs as worker 0 in index order.
// Panic semantics match ForEach: the first panic re-raises on the caller
// once every started worker has stopped.
func (p *Pool) ForEachWorker(n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	workers := min(p.Width(), n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if failure := call(fn, 0, i); failure != nil {
				panic(failure)
			}
		}
		return
	}

	f := &fanout{fn: fn, n: n}
	f.wg.Add(workers - 1)
	for w := 0; w < workers-1; w++ {
		go f.helper(w)
	}
	f.work(workers - 1)
	f.wg.Wait()
	if f.failure != nil {
		panic(f.failure)
	}
}

// fanout is the state one multi-worker ForEachWorker call shares between
// the caller and its helper goroutines.
type fanout struct {
	fn      func(worker, i int)
	n       int
	next    atomic.Int64
	wg      sync.WaitGroup
	aborted atomic.Bool
	// failure is written once, by the worker that sets aborted, and read by
	// the caller after wg.Wait.
	failure *panicError
}

func (f *fanout) helper(worker int) {
	defer f.wg.Done()
	f.work(worker)
}

// work claims items until they run out or some worker has panicked.
func (f *fanout) work(worker int) {
	for !f.aborted.Load() {
		i := int(f.next.Add(1)) - 1
		if i >= f.n {
			return
		}
		if failure := call(f.fn, worker, i); failure != nil {
			if f.aborted.CompareAndSwap(false, true) {
				f.failure = failure
			}
			return
		}
	}
}

// call runs fn(worker, i) and returns its panic, if any, as a *panicError
// carrying the panicking stack. A *panicError raised by a nested pool passes
// through unchanged, so a failure is wrapped once however deep it started.
func call(fn func(worker, i int), worker, i int) (failure *panicError) {
	defer func() {
		if r := recover(); r != nil {
			if inner, ok := r.(*panicError); ok {
				failure = inner
				return
			}
			buf := make([]byte, 64<<10)
			failure = &panicError{value: r, stack: buf[:runtime.Stack(buf, false)]}
		}
	}()
	fn(worker, i)
	return nil
}

// Map runs fn over every index in [0, n) on pool p and returns the results
// in index order, regardless of which worker finished first. fn must not
// depend on invocation order.
func Map[T any](p *Pool, n int, fn func(i int) T) []T {
	out := make([]T, n)
	p.ForEach(n, func(i int) {
		out[i] = fn(i)
	})
	return out
}
