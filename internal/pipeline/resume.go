package pipeline

import "time"

// Resuming a priced run from a shared prefix. The event loop first reads
// request i's row when some processor's queue reaches i (tryStart), and
// every step before that depends only on rows 0..i−1: the clock, the
// in-flight slices, the queues, the admission state and the busy-time
// accumulators. So the loop state at that first look is a function of rows
// 0..i−1 alone, and a run of any schedule that shares those rows passes
// through it unchanged. Search.Price keeps it as row i's record; a later
// Price whose schedule differs only in rows ≥ i restores it and runs on from
// there, re-entering the start pass at the stage that first looked — the
// same floats in the same order as a run from the start, so the Cost is
// bit-identical.
//
// The cutoff needs no record of its own: the clock only moves forward and
// the run checks it after every step, so a record whose clock is at or past
// a cutoff was taken after the step at which a full run under that cutoff
// stops with ErrCutoff, and a record below it was reached by that run
// without stopping.

// loopRecord is the event loop's state at one row's first look: everything
// tryStart reads or writes, with the per-request state of rows 0..i−1 only
// (every later row is still in its seed state, which a restore rebuilds
// from the current measurement).
type loopRecord struct {
	// stage is the stage whose queue first reached the row.
	stage           int
	now             time.Duration
	memUse, peakMem int64
	stalls          int
	// running holds the in-flight slices, in running order.
	running []execState
	// Per-stage state.
	nextReq []int
	busy    []bool
	busyDur []time.Duration
	// Per-request state of rows 0..i−1.
	pendFrom                     []int
	admitted, stalled, finishReq []bool
}

// record keeps e's state as row i's first look at stage st, when i is a row
// the run takes records for (see Search.lim); rows 1..i then hold valid
// records.
func (q *Search) record(e *execRun, i, st int) {
	if i > e.lim {
		return
	}
	r, sc := &q.recs[i], e.sc
	r.stage, r.now, r.memUse, r.peakMem, r.stalls = st, e.now, e.memUse, e.peakMem, e.stalls
	r.running = r.running[:0]
	for _, es := range e.running {
		r.running = append(r.running, *es)
	}
	r.nextReq = append(r.nextReq[:0], sc.nextReq...)
	r.busy = append(r.busy[:0], sc.busy...)
	r.busyDur = append(r.busyDur[:0], sc.busyDur...)
	r.pendFrom = append(r.pendFrom[:0], sc.pendFrom[:i]...)
	r.admitted = append(r.admitted[:0], sc.admitted[:i]...)
	r.stalled = append(r.stalled[:0], sc.stalled[:i]...)
	r.finishReq = append(r.finishReq[:0], sc.finishedReq[:i]...)
	q.valid = i
}

// restore puts r, row i's record, into a run e has just started (its
// scratch seeded for the current measurement), and returns the stage the
// start pass re-enters at. The in-flight slices move to the front of the
// scratch slab: they are slices of rows 0..i−1, which the current
// schedule shares, so the slab sized for it holds them and every slice
// still to start.
func (r *loopRecord) restore(e *execRun, i int) int {
	sc := e.sc
	e.now, e.memUse, e.peakMem, e.stalls = r.now, r.memUse, r.peakMem, r.stalls
	copy(sc.nextReq, r.nextReq)
	copy(sc.busy, r.busy)
	copy(sc.busyDur, r.busyDur)
	copy(sc.pendFrom, r.pendFrom)
	copy(sc.admitted, r.admitted)
	copy(sc.stalled, r.stalled)
	copy(sc.finishedReq, r.finishReq)
	e.nStates = copy(sc.states, r.running)
	for idx := range e.nStates {
		e.running = append(e.running, &sc.states[idx])
	}
	e.looked = i
	return r.stage
}
