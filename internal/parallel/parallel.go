// Package parallel provides the bounded, deterministic fan-out primitive the
// planner and baselines share. The contract that keeps the parallel planner
// byte-identical to the sequential one (DESIGN.md §6) lives here: work items
// are indexed, every worker writes only to its item's slot, and callers merge
// results in index order — never in completion order. Worker count is a pure
// throughput knob; it can never change an outcome.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers normalises a parallelism setting: values ≤ 0 mean "auto", i.e.
// runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// For runs fn(i) for every i in [0, n) across at most workers goroutines
// (workers ≤ 0 auto-sizes; workers == 1 runs inline on the caller's
// goroutine, reproducing sequential execution exactly). The caller's
// goroutine is one of the workers, so a fan-out spawns workers−1
// goroutines. Indices are claimed in ascending order. fn must confine its
// writes to data owned by index i. A panic in any fn, the caller's share
// included, is re-raised on the caller's goroutine after all workers stop.
func For(workers, n int, fn func(int)) {
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	var panicOnce sync.Once
	var panicked any
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				panicOnce.Do(func() { panicked = r })
			}
		}()
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
}

// ForErr is For with error-returning work. Every index runs, failing or
// not, so the side effects of fn (memoized state, counters) never depend on
// goroutine timing or the worker count, and the error returned is the
// lowest failing index's — the one a sequential loop would surface first.
func ForErr(workers, n int, fn func(int) error) error {
	if Workers(workers) <= 1 || n <= 1 {
		var first error
		for i := 0; i < n; i++ {
			if err := fn(i); err != nil && first == nil {
				first = err
			}
		}
		return first
	}
	errs := make([]error, n)
	For(workers, n, func(i int) { errs[i] = fn(i) })
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
