package experiment

import "flips/internal/parallel"

// runJobs fans n independent jobs out over a pool bounded by parallelism
// and returns their results in index order, or the first error in index
// order. This is the shared skeleton of Sweep.Run and the figure runners:
// the jobs are the coarsest — and
// therefore cheapest — level to spend the whole concurrency budget on, job
// interiors must run sequentially (callers set Parallelism: 1 on the
// interior scale), and index-ordered assembly keeps results bit-identical
// at every pool width.
func runJobs[T any](parallelism, n int, run func(int) (T, error)) ([]T, error) {
	type out struct {
		v   T
		err error
	}
	outs := parallel.Map(parallel.New(parallelism), n, func(i int) out {
		v, err := run(i)
		return out{v: v, err: err}
	})
	results := make([]T, n)
	for i, o := range outs {
		if o.err != nil {
			return nil, o.err
		}
		results[i] = o.v
	}
	return results, nil
}
