package pipeline

import (
	"context"
	"slices"
	"time"

	"hetero2pipe/internal/contention"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// measurement is what the event loop reads of a schedule: every slice's
// solo duration and contention footprint, every request's resident memory
// and first non-empty stage, and the non-empty slice count. Measuring
// validates the schedule row by row, so one row can be replaced and
// re-measured alone (see Search); ExecuteContext measures the whole
// schedule into pooled scratch before the event loop it shares with
// Search.Price.
// Each figure is exactly what the profile returns for the slice
// (SliceTime, Footprint, MemoryBytes), so reading it from here changes no
// bit of any result.
type measurement struct {
	k int
	// dur[i*k+st] and fp[i*k+st] are the solo time and footprint of request
	// i's stage st (zero for an empty stage), and sec[i*k+st] is
	// dur[i*k+st].Seconds(), the work a slice starts with.
	dur []time.Duration
	sec []float64
	fp  []contention.Footprint
	// mem[i] is request i's resident memory, first[i] its first non-empty
	// stage (k when every stage is empty) and count[i] its non-empty
	// stages; slices sums count.
	mem    []int64
	first  []int
	count  []int
	slices int
}

// measure validates s and measures every row, reusing ms's buffers. Its
// errors are Validate's.
func (ms *measurement) measure(s *Schedule) error {
	if err := s.validateShape(); err != nil {
		return err
	}
	m, k := s.NumRequests(), s.NumStages()
	ms.k = k
	ms.dur = grow(ms.dur, m*k)
	ms.sec = grow(ms.sec, m*k)
	ms.fp = grow(ms.fp, m*k)
	ms.mem = grow(ms.mem, m)
	ms.first = grow(ms.first, m)
	ms.count = grow(ms.count, m)
	ms.slices = 0
	for i, row := range s.Stages {
		if err := s.validateRow(i, row); err != nil {
			return err
		}
		ms.row(s, i)
	}
	return nil
}

// row re-measures request i of an already validated row; its resident
// memory sums its slices' in stage order.
func (ms *measurement) row(s *Schedule, i int) {
	k, p := ms.k, s.Profiles[i]
	first, count := k, 0
	var mem int64
	for st, r := range s.Stages[i] {
		at := i*k + st
		if r.Empty() {
			ms.dur[at], ms.sec[at], ms.fp[at] = 0, 0, contention.Footprint{}
			continue
		}
		if first == k {
			first = st
		}
		count++
		ms.dur[at] = p.SliceTime(st, r.From, r.To)
		ms.sec[at] = ms.dur[at].Seconds()
		ms.fp[at] = p.Footprint(st, r.From, r.To)
		mem += p.MemoryBytes(r.From, r.To)
	}
	ms.mem[i] = mem
	ms.first[i] = first
	ms.slices += count - ms.count[i]
	ms.count[i] = count
}

// Search prices the variants of a local search over one schedule, each
// differing from the schedule before it in a few requests' stage rows. It
// holds a private copy of the schedule and its measurement: SetRow and
// SetCuts validate and re-measure the replaced row alone, and Price reads
// every other row as measured once. Price also keeps the event loop's state
// at each row's first look, and resumes the next run from the latest one
// the rows replaced since leave valid (see resume.go). A priced variant's
// Cost is bit-identical to a fresh Search's over a schedule with the same
// rows, and to what ExecuteContext reports for it. The zero value is ready
// for Reset; a Search is not safe for concurrent use, and callers reuse one
// across searches to reuse its buffers.
type Search struct {
	sched  Schedule
	flat   []LayerRange
	stages [][]LayerRange
	row    []LayerRange
	ms     measurement
	opts   Options
	// recs[i] is the loop state at row i's first look; rows 1..valid hold
	// records of the current rows 0..i−1 (row 0's would be the seed
	// state). A record costs a copy of the loop state, so a run keeps only
	// those of rows up to lim, the highest row replaced since the previous
	// Price or reset: a downward walk — the tail search — next replaces a
	// row at or below it, dropping every record above, and after a reset
	// the work-stolen cuts replace rows all over the schedule.
	recs       []loopRecord
	valid, lim int
	// SoloMakespan's flow shop before row i, for rows 1..soloValid: each
	// stage's clock (soloFree[i*k:(i+1)*k]), the last admission and the
	// latest completion so far. Like a record, it depends only on rows
	// 0..i−1.
	soloFree            []time.Duration
	soloAdmit, soloSpan []time.Duration
	soloValid           int
	free                []time.Duration
}

// forget drops every record and flow-shop prefix.
func (q *Search) forget(m int) {
	q.recs = slices.Grow(q.recs[:0], m)[:m]
	q.valid, q.lim, q.soloValid = 0, 0, 0
}

// Reset makes a copy of s the search's schedule, priced under opts, and
// measures it. Its errors are Validate's; s itself is never written.
func (q *Search) Reset(s *Schedule, opts Options) error {
	if err := s.validateShape(); err != nil {
		return err
	}
	q.flat, q.stages = copyStages(q.flat, q.stages, s.Stages)
	q.sched = Schedule{SoC: s.SoC, Profiles: s.Profiles, Stages: q.stages}
	q.opts = opts
	q.forget(len(s.Profiles))
	return q.ms.measure(&q.sched)
}

// ResetCuts makes the schedule FromCuts would assemble the search's
// schedule, priced under opts, and measures it; its errors are FromCuts'.
// The search keeps profiles, which must not change while it is in use.
// After an error from Reset or ResetCuts the search must be reset again
// before it is used.
func (q *Search) ResetCuts(s *soc.SoC, profiles []*profile.Profile, cuts []Cuts, opts Options) error {
	if err := checkCuts(s, profiles, cuts); err != nil {
		return err
	}
	m, k := len(profiles), s.NumProcessors()
	q.flat = slices.Grow(q.flat[:0], m*k)[:m*k]
	q.stages = slices.Grow(q.stages[:0], m)[:m]
	for i, c := range cuts {
		q.stages[i] = q.flat[i*k : (i+1)*k : (i+1)*k]
		c.rangesInto(q.stages[i])
	}
	q.sched = Schedule{SoC: s, Profiles: profiles, Stages: q.stages}
	q.opts = opts
	q.forget(m)
	return q.ms.measure(&q.sched)
}

// Schedule returns the search's current schedule. It aliases the search:
// it changes with every SetRow and SetCuts and is reused by the next Reset,
// so a caller that keeps it must Clone it.
func (q *Search) Schedule() *Schedule { return &q.sched }

// SetRow replaces request i's stage row with a copy of row, validating and
// re-measuring that row alone; the records and flow-shop prefixes of rows
// above i, which read it, are dropped. A row Validate would reject returns its error and leaves the
// search unchanged.
func (q *Search) SetRow(i int, row []LayerRange) error {
	if err := q.sched.validateRow(i, row); err != nil {
		return err
	}
	copy(q.sched.Stages[i], row)
	q.ms.row(&q.sched, i)
	q.valid, q.lim = min(q.valid, i), max(q.lim, i)
	q.soloValid = min(q.soloValid, i)
	return nil
}

// SetCuts replaces request i's stage row with the ranges of c, the row
// FromCuts would assemble from it. Cuts FromCuts would reject return an
// error and leave the search unchanged.
func (q *Search) SetCuts(i int, c Cuts) error {
	k := q.sched.NumStages()
	if !ValidCuts(c, q.sched.Profiles[i].NumLayers(), k) {
		return invalidCuts(i, c)
	}
	q.row = grow(q.row, k)
	c.rangesInto(q.row)
	return q.SetRow(i, q.row)
}

// Price runs the search's current schedule under its options on the same
// event loop and pooled scratch as ExecuteContext, reading the kept
// measurement, but keeps only its Cost: it builds no Timeline, completion
// times, bubble total or memory trace and sorts nothing, so a steady-state
// call allocates nothing. Options.SampleMemory, Metrics and Logger are
// ignored. The run starts from the latest valid record when there is one.
//
// Price returns ErrCutoff as soon as the virtual clock reaches cutoff. The
// clock only moves forward, so the makespan is then at least cutoff; and a
// run whose makespan is at least cutoff reaches it on its last step at the
// latest. So Price returns ErrCutoff exactly when ExecuteContext's
// makespan would be ≥ cutoff, and a caller that only accepts a makespan
// below some incumbent's loses nothing by passing that makespan as the
// cutoff. Pass NoCutoff to price every run to completion.
func (q *Search) Price(cutoff time.Duration) (Cost, error) {
	if cutoff <= 0 {
		return Cost{}, ErrCutoff // every makespan is ≥ 0
	}
	m := q.sched.NumRequests()
	if m == 0 {
		return Cost{}, nil
	}
	lim := q.lim
	q.lim = 0
	var rec *loopRecord
	if q.valid > 0 {
		if rec = &q.recs[q.valid]; rec.now >= cutoff {
			return Cost{}, ErrCutoff
		}
	}
	sc := execScratchPool.Get().(*execScratch)
	defer execScratchPool.Put(sc)
	opts := q.opts
	opts.SampleMemory, opts.Logger = false, nil
	var e execRun
	e.start(context.Background(), &q.sched, &q.ms, sc, opts)
	defer e.release()
	e.cutoff, e.q, e.lim = cutoff, q, lim
	from := 0
	if rec != nil {
		from = rec.restore(&e, q.valid)
	}
	if err := e.run(from); err != nil {
		return Cost{}, err
	}
	return Cost{Makespan: e.now, EnergyJoules: e.energy, PeakMemoryBytes: e.peakMem, Completed: m}, nil
}

// SoloMakespan returns the contention-free makespan the search's schedule
// would have with request i's row replaced by row (as SetRow would take it;
// soc.InfDuration when the row holds a range its processor cannot run), in
// the executor's order: every slice at its solo time, each processor
// serving requests in index order, each request running its stages in
// order and starting its first no earlier than the request before it
// started its own (admission is in order). Co-execution only dilates a
// slice and the memory gate only delays an admission, so Price's makespan
// for that schedule is never below it by more than the clock's truncation:
// under 1 ns per clock step, and every step completes at least one of the
// at most m·K slices. The search itself is unchanged; the flow shop over
// rows 0..i−1 is kept and reused until one of them is replaced.
func (q *Search) SoloMakespan(i int, row []LayerRange) time.Duration {
	k, m := q.ms.k, len(q.sched.Stages)
	q.soloFree = slices.Grow(q.soloFree[:0], m*k)[:m*k]
	q.soloAdmit = slices.Grow(q.soloAdmit[:0], m)[:m]
	q.soloSpan = slices.Grow(q.soloSpan[:0], m)[:m]
	q.free = grow(q.free, k)
	free := q.free
	r := min(i, q.soloValid)
	var admitted, span time.Duration
	if r > 0 {
		copy(free, q.soloFree[r*k:(r+1)*k])
		admitted, span = q.soloAdmit[r], q.soloSpan[r]
	}
	for ; r < m; r++ {
		if r > q.soloValid && r <= i {
			copy(q.soloFree[r*k:(r+1)*k], free)
			q.soloAdmit[r], q.soloSpan[r], q.soloValid = admitted, span, r
		}
		stages := q.sched.Stages[r]
		if r == i {
			stages = row
		}
		t, first := time.Duration(0), true
		for st, lr := range stages {
			if lr.Empty() {
				continue
			}
			d := q.ms.dur[r*k+st]
			if r == i {
				if d = q.sched.Profiles[i].SliceTime(st, lr.From, lr.To); d == soc.InfDuration {
					return soc.InfDuration
				}
			}
			start := max(t, free[st])
			if first {
				start = max(start, admitted)
				admitted, first = start, false
			}
			t = start + d
			free[st] = t
		}
		span = max(span, t)
	}
	return span
}
