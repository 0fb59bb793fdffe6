package parallel

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNewDefaultsToGOMAXPROCS(t *testing.T) {
	t.Parallel()
	if w := New(0).Width(); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("default width %d, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
	if w := New(-3).Width(); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("negative width gave %d", w)
	}
	if w := New(7).Width(); w != 7 {
		t.Fatalf("explicit width gave %d", w)
	}
}

func TestForEachVisitsEveryIndexOnce(t *testing.T) {
	t.Parallel()
	for _, width := range []int{1, 2, 4, 16} {
		const n = 500
		counts := make([]atomic.Int64, n)
		New(width).ForEach(n, func(i int) {
			counts[i].Add(1)
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("width %d: index %d visited %d times", width, i, c)
			}
		}
	}
}

func TestForEachRespectsWidthLimit(t *testing.T) {
	t.Parallel()
	const width = 3
	var inFlight, peak atomic.Int64
	gate := make(chan struct{})
	go func() {
		// Let workers pile up against the gate before releasing them, so the
		// peak measurement actually exercises the bound.
		close(gate)
	}()
	New(width).ForEach(64, func(i int) {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		<-gate
		inFlight.Add(-1)
	})
	if p := peak.Load(); p > width {
		t.Fatalf("observed %d concurrent workers, width %d", p, width)
	}
}

func TestForEachWidthOneRunsInIndexOrder(t *testing.T) {
	t.Parallel()
	var order []int
	New(1).ForEach(10, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("width-1 order %v", order)
		}
	}
}

func TestMapReturnsIndexOrderedResults(t *testing.T) {
	t.Parallel()
	for _, width := range []int{1, 4, 32} {
		got := Map(New(width), 200, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("width %d: out[%d] = %d", width, i, v)
			}
		}
	}
}

func TestForEachPropagatesPanic(t *testing.T) {
	t.Parallel()
	for _, width := range []int{1, 4} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("width %d: panic not propagated", width)
				}
				pe, ok := r.(*panicError)
				if !ok {
					t.Fatalf("width %d: recovered %T, want *panicError", width, r)
				}
				if pe.value != "boom" {
					t.Fatalf("width %d: panic value %v", width, pe.value)
				}
				if len(pe.stack) == 0 {
					t.Fatalf("width %d: no stack captured", width)
				}
			}()
			New(width).ForEach(50, func(i int) {
				if i == 17 {
					panic("boom")
				}
			})
		}()
	}
}

// TestForEachPropagatesNestedPanic: a panic two pools deep reaches the
// outer caller wrapped once, whichever of the two pools fans out.
func TestForEachPropagatesNestedPanic(t *testing.T) {
	t.Parallel()
	for _, outer := range []int{1, 2} {
		for _, inner := range []int{1, 2} {
			func() {
				defer func() {
					pe, ok := recover().(*panicError)
					if !ok {
						t.Fatalf("outer %d inner %d: did not recover one *panicError", outer, inner)
					}
					if pe.value != "boom" {
						t.Fatalf("outer %d inner %d: panic value %v (%T), want \"boom\"", outer, inner, pe.value, pe.value)
					}
				}()
				New(outer).ForEach(8, func(i int) {
					New(inner).ForEach(8, func(j int) {
						if i == 3 && j == 5 {
							panic("boom")
						}
					})
				})
			}()
		}
	}
}

func TestForEachZeroAndNegativeN(t *testing.T) {
	t.Parallel()
	called := false
	New(4).ForEach(0, func(int) { called = true })
	New(4).ForEach(-5, func(int) { called = true })
	if called {
		t.Fatal("fn called for non-positive n")
	}
}

func TestZeroValuePoolIsGOMAXPROCSWide(t *testing.T) {
	t.Parallel()
	var p Pool
	if w := p.Width(); w != runtime.GOMAXPROCS(0) {
		t.Fatalf("zero-value width %d, want GOMAXPROCS %d", w, runtime.GOMAXPROCS(0))
	}
	got := Map(&p, 100, func(i int) int { return i + 1 })
	for i, v := range got {
		if v != i+1 {
			t.Fatalf("zero-value pool dropped work: out[%d] = %d", i, v)
		}
	}
}

// TestForEachWorkerPartitionsItems: every index is processed exactly once,
// worker ids stay in [0, min(width, n)), and — because items sharing a
// worker id never run concurrently — per-worker state needs no locking.
func TestForEachWorkerPartitionsItems(t *testing.T) {
	t.Parallel()
	const n = 500
	for _, width := range []int{1, 3, 8} {
		p := New(width)
		perWorker := make([][]int, width)
		p.ForEachWorker(n, func(w, i int) {
			if w < 0 || w >= width {
				t.Errorf("worker id %d out of range [0,%d)", w, width)
				return
			}
			// Unsynchronized append: safe iff the same worker id is never
			// used concurrently (the race detector enforces this in -race
			// CI runs).
			perWorker[w] = append(perWorker[w], i)
		})
		seen := make([]bool, n)
		for _, items := range perWorker {
			for _, i := range items {
				if seen[i] {
					t.Fatalf("width %d: index %d processed twice", width, i)
				}
				seen[i] = true
			}
		}
		for i, ok := range seen {
			if !ok {
				t.Fatalf("width %d: index %d never processed", width, i)
			}
		}
	}
}

// TestForEachWorkerSequentialUsesWorkerZero: the width-1 fast path runs
// everything as worker 0 in index order.
func TestForEachWorkerSequentialUsesWorkerZero(t *testing.T) {
	t.Parallel()
	var got []int
	New(1).ForEachWorker(5, func(w, i int) {
		if w != 0 {
			t.Fatalf("sequential path used worker %d", w)
		}
		got = append(got, i)
	})
	for i, v := range got {
		if i != v {
			t.Fatalf("sequential order broken: %v", got)
		}
	}
}

// goroutineHeader returns the "goroutine N" that opens the calling
// goroutine's stack dump.
func goroutineHeader() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	if i := bytes.Index(buf, []byte(" [")); i > 0 {
		buf = buf[:i]
	}
	return string(buf)
}

// TestForEachWorkerCallerIsAWorker: a fanned-out call runs exactly one
// worker id on the calling goroutine and each other id on a goroutine of
// its own. Every item waits until all W items have started, so each of the
// W workers holds exactly one.
func TestForEachWorkerCallerIsAWorker(t *testing.T) {
	t.Parallel()
	for _, width := range []int{2, 4} {
		caller := goroutineHeader()
		ran := make([]string, width)
		var started sync.WaitGroup
		started.Add(width)
		all := make(chan struct{})
		go func() { started.Wait(); close(all) }()
		New(width).ForEachWorker(width, func(w, _ int) {
			ran[w] = goroutineHeader()
			started.Done()
			select {
			case <-all:
			case <-time.After(10 * time.Second):
				t.Errorf("width %d: only some workers started", width)
			}
		})
		onCaller, seen := 0, map[string]bool{}
		for w, g := range ran {
			if g == caller {
				onCaller++
			}
			if seen[g] {
				t.Fatalf("width %d: worker %d shares %s with another worker", width, w, g)
			}
			seen[g] = true
		}
		if onCaller != 1 {
			t.Fatalf("width %d: %d worker ids ran on the caller (%s), want 1: %q", width, onCaller, caller, ran)
		}
	}
}

func noop(int, int) {}

// TestForEachWorkerAllocs: the width-1 loop allocates nothing, and a
// fanned-out call allocates its shared state and one closure per helper.
func TestForEachWorkerAllocs(t *testing.T) {
	for _, tc := range []struct {
		width int
		max   float64
	}{{1, 0}, {2, 2}} {
		p := New(tc.width)
		if got := testing.AllocsPerRun(200, func() { p.ForEachWorker(16, noop) }); got > tc.max {
			t.Errorf("width %d: %.1f allocs per call, want <= %.0f", tc.width, got, tc.max)
		}
	}
}

// BenchmarkForEachWorker: one 16-item call of small independent items, the
// shape of the engine's per-wave training call at pool widths 1 and 2.
func BenchmarkForEachWorker(b *testing.B) {
	for _, width := range []int{1, 2} {
		b.Run(fmt.Sprintf("width=%d", width), func(b *testing.B) {
			p := New(width)
			var sums [16]float64
			item := func(_, i int) {
				s := 0.0
				for k := 1; k <= 64; k++ {
					s += float64(i) / float64(k)
				}
				sums[i] = s
			}
			b.ReportAllocs()
			for it := 0; it < b.N; it++ {
				p.ForEachWorker(len(sums), item)
			}
		})
	}
}
