package pipeline

import (
	"sync"
	"time"
)

// execScratch is the reusable working set of one ExecuteContext or Price
// call. Every simulation-local array the executor needs — the per-stage and
// per-request admission state, the per-step contention buffers, the
// in-flight set and its swap buffer, the execState slab and the per-stage
// accumulators — lives here, so a steady-state execution performs O(1)
// heap allocations: only the Result and the slices it hands back to the
// caller (Completions, Timeline, MemTrace) are freshly allocated, and a
// Price call allocates nothing.
//
// Pool invariants:
//   - A scratch is owned by exactly one ExecuteContext or Price call
//     between Get and Put; nothing in a returned Result may alias scratch
//     memory (Timeline entries are values, Completions/MemTrace are
//     caller-owned slices).
//   - states is sized once per call to the exact non-empty-slice count and
//     never grows mid-run, so *execState pointers held in running/still stay
//     valid for the whole simulation.
//   - All buffers are re-sized and re-zeroed by acquire; Put performs no
//     cleaning, so a scratch must never be Put twice or used after Put.
type execScratch struct {
	// nextReq[st] is the next request index stage st must serve (in-order
	// per stage); busy[st] marks an in-flight slice on the stage.
	nextReq []int
	busy    []bool
	// Per-request admission and completion state.
	admitted    []bool
	stalled     []bool
	finishedReq []bool
	memOf       []int64
	// pendFrom[i] is request i's frontier: the first non-empty stage not
	// yet completed, or k when the request is done. Because a request's
	// stages start only when every earlier non-empty stage has finished, at
	// most one of its slices is ever in flight and they complete in stage
	// order — so the frontier advances monotonically and replaces the
	// original O(k) firstPendingStage/depSatisfied scans with O(1) reads.
	pendFrom []int
	// Per-step contention buffers: demands caches each running slice's solo
	// bus demand so the skip-self pressure sums reuse one buffer, factors
	// holds the step's dilation factors.
	demands []float64
	factors []float64
	// running/still are the in-flight set and its completion-pass swap
	// buffer; states is the per-call execState slab they point into.
	running []*execState
	still   []*execState
	states  []execState
	// busyDur is each stage's summed busy time, added at every slice
	// completion and rolled up into the run's energy; lastEnd and started
	// serve the one-pass bubble accounting.
	busyDur []time.Duration
	lastEnd []time.Duration
	started []bool
}

var execScratchPool = sync.Pool{New: func() any { return new(execScratch) }}

// acquireScratch returns a pooled scratch sized and reset for an m-request,
// k-stage schedule with slices non-empty stages.
func acquireScratch(m, k, slices int) *execScratch {
	sc := execScratchPool.Get().(*execScratch)
	sc.nextReq = growInts(sc.nextReq, k)
	sc.busy = growBools(sc.busy, k)
	sc.admitted = growBools(sc.admitted, m)
	sc.stalled = growBools(sc.stalled, m)
	sc.finishedReq = growBools(sc.finishedReq, m)
	sc.memOf = growInt64s(sc.memOf, m)
	sc.pendFrom = growInts(sc.pendFrom, m)
	sc.demands = growFloats(sc.demands, k)
	sc.factors = growFloats(sc.factors, k)
	// At most one slice per stage is ever in flight, so k caps both the
	// running set and its swap buffer — pre-growing them means the hot
	// loop's appends never reallocate.
	if cap(sc.running) < k {
		sc.running = make([]*execState, 0, k)
	} else {
		sc.running = sc.running[:0]
	}
	if cap(sc.still) < k {
		sc.still = make([]*execState, 0, k)
	} else {
		sc.still = sc.still[:0]
	}
	if cap(sc.states) < slices {
		sc.states = make([]execState, slices)
	}
	sc.states = sc.states[:slices]
	sc.busyDur = growDurations(sc.busyDur, k)
	sc.lastEnd = growDurations(sc.lastEnd, k)
	sc.started = growBools(sc.started, k)
	return sc
}

func releaseScratch(sc *execScratch) { execScratchPool.Put(sc) }

// The grow helpers resize a scratch buffer to n zeroed entries, reusing
// capacity when it suffices.

func growDurations(buf []time.Duration, n int) []time.Duration {
	if cap(buf) < n {
		return make([]time.Duration, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

func growInts(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

func growInt64s(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

func growFloats(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = 0
	}
	return buf
}

func growBools(buf []bool, n int) []bool {
	if cap(buf) < n {
		return make([]bool, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = false
	}
	return buf
}
