package experiment

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The experiment harness fans independent runs out over a worker pool.
// Safety rests on two properties the rest of the repo maintains: every
// Run/Sweep builds its own des.Engine, cluster, and seed-split PRNG (no
// package-level mutable state anywhere in the simulator), and every
// result is written to a caller-indexed slot, then merged in input order.
// Output is therefore byte-identical to a sequential execution at any
// worker count — a property pinned by TestParallelMatchesSequential*.

// maxWorkers is the fan-out ceiling for every harness entry point.
// Atomic so tests and the CLI can adjust it while benchmarks poll it.
var maxWorkers atomic.Int64

func init() { maxWorkers.Store(int64(runtime.GOMAXPROCS(0))) }

// MaxWorkers returns the current fan-out ceiling.
func MaxWorkers() int { return int(maxWorkers.Load()) }

// SetMaxWorkers sets the harness fan-out (1 = strictly sequential,
// the default is GOMAXPROCS) and returns the previous value. Values
// below 1 are clamped to 1.
func SetMaxWorkers(n int) int {
	if n < 1 {
		n = 1
	}
	return int(maxWorkers.Swap(int64(n)))
}

// ParallelFor runs fn(0..n-1), fanning out over at most MaxWorkers
// goroutines. Iterations must be independent; completion order is
// unspecified, so fn must write results only to its own index.
// Nested calls are safe — each level spawns its own bounded pool and
// GOMAXPROCS bounds actual CPU use. It backs RunMany, the sweeps, the
// chaos table and the tournament; des.Striper does not use it, since
// it owns a pinned pool of its own (SetWorkers).
func ParallelFor(n int, fn func(i int)) {
	w := MaxWorkers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// RunMany executes each config on its own engine, in parallel up to
// MaxWorkers, and returns results in input order.
func RunMany(cfgs []RunConfig) []*RunResult {
	out := make([]*RunResult, len(cfgs))
	ParallelFor(len(cfgs), func(i int) { out[i] = Run(cfgs[i]) })
	return out
}
