package pipeline

import (
	"sync"
	"time"
)

// execScratch is the reusable working set of one ExecuteContext or
// Search.Price call. Every simulation-local array the executor needs — the schedule's
// measurement, the per-stage and per-request admission state, the per-step
// contention buffers, the in-flight set and its swap buffer, the execState
// slab and the per-stage accumulators — lives here, so a steady-state
// execution performs O(1) heap allocations: only the Result and the slices
// it hands back to the caller (Completions, Timeline, MemTrace) are freshly
// allocated, and a Search.Price call allocates nothing.
//
// Pool invariants:
//   - A scratch is owned by exactly one ExecuteContext or Search.Price call
//     between Get and Put; nothing in a returned Result may alias scratch
//     memory (Timeline entries are values, Completions/MemTrace are
//     caller-owned slices).
//   - states is sized once per call to the exact non-empty-slice count and
//     never grows mid-run, so *execState pointers held in running/still stay
//     valid for the whole simulation.
//   - All buffers are re-sized and re-zeroed by size (the measurement by
//     measure); Put performs no cleaning, so a scratch must never be Put
//     twice or used after Put.
type execScratch struct {
	// ms measures the schedule of an ExecuteContext call; a Search prices
	// from its own measurement and leaves this one unused.
	ms measurement
	// nextReq[st] is the next request index stage st must serve (in-order
	// per stage); busy[st] marks an in-flight slice on the stage.
	nextReq []int
	busy    []bool
	// Per-request admission and completion state.
	admitted    []bool
	stalled     []bool
	finishedReq []bool
	// pendFrom[i] is request i's frontier: the first non-empty stage not
	// yet completed, or k when the request is done. Because a request's
	// stages start only when every earlier non-empty stage has finished, at
	// most one of its slices is ever in flight and they complete in stage
	// order — so the frontier advances monotonically and replaces the
	// original O(k) firstPendingStage/depSatisfied scans with O(1) reads.
	pendFrom []int
	// factors holds each running slice's dilation for the current step.
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

// size resizes and resets the scratch for an m-request, k-stage schedule
// with slices non-empty stages.
func (sc *execScratch) size(m, k, slices int) {
	sc.nextReq = grow(sc.nextReq, k)
	sc.busy = grow(sc.busy, k)
	sc.admitted = grow(sc.admitted, m)
	sc.stalled = grow(sc.stalled, m)
	sc.finishedReq = grow(sc.finishedReq, m)
	sc.pendFrom = grow(sc.pendFrom, m)
	sc.factors = grow(sc.factors, k)
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
	sc.busyDur = grow(sc.busyDur, k)
	sc.lastEnd = grow(sc.lastEnd, k)
	sc.started = grow(sc.started, k)
}

// grow resizes a scratch buffer to n zeroed entries, reusing its capacity
// when it suffices.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
