// Package farm is the experiment run farm: a bounded worker pool that
// executes independent simulation runs across goroutines. A single
// simulation is strictly single-threaded by design (the kernels are
// deterministic state machines), but the experiment harnesses —
// Table 1 accuracy rows, ablation sweeps, scenario batteries — are
// embarrassingly parallel across runs, so multi-scenario experiments
// scale with cores instead of running one run at a time.
//
// Workers never share model state: every job builds its own platform
// (engine, memory, checker, stats) from its workload description, and
// results land in per-index slots, so runs stay bit-reproducible
// regardless of scheduling order.
package farm

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// DefaultWorkers is the worker count used when a caller passes
// workers <= 0: one per available CPU.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// Do runs fn(i) for every i in [0, n) on at most workers goroutines
// (workers <= 0 means DefaultWorkers). It returns when every call has
// finished. A panic in any call is re-raised on the caller's goroutine
// after the remaining jobs drain, so a model assertion failing inside a
// farmed run surfaces exactly like a serial one.
func Do(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Serial fast path: no goroutines, identical call order.
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicked atomic.Value
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicked.CompareAndSwap(nil, fmt.Sprintf("farm: job %d panicked: %v", i, r))
						}
					}()
					fn(i)
				}()
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
}

// Map runs fn(i) for every i in [0, n) on at most workers goroutines
// and returns the results in index order. Scheduling order never
// affects the output: slot i always holds fn(i).
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	Do(workers, n, func(i int) {
		out[i] = fn(i)
	})
	return out
}

// Pair runs two independent functions concurrently (on two goroutines
// at most) and returns when both finish. It is the two-model harness
// shape: the same workload pushed through the pin-accurate model and
// the TLM at once.
func Pair(a, b func()) {
	Do(2, 2, func(i int) {
		if i == 0 {
			a()
		} else {
			b()
		}
	})
}
