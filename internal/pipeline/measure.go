package pipeline

import (
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
// re-measured alone (see Search); ExecuteContext and Price measure the
// whole schedule into pooled scratch before their one shared event loop.
// Each figure is exactly what the profile returns for the slice
// (SliceTime, Footprint, MemoryBytes), so reading it from here changes no
// bit of any result.
type measurement struct {
	k int
	// dur[i*k+st] and fp[i*k+st] are the solo time and footprint of request
	// i's stage st (zero for an empty stage).
	dur []time.Duration
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

// row re-measures request i of an already validated row.
func (ms *measurement) row(s *Schedule, i int) {
	k, p := ms.k, s.Profiles[i]
	first, count := k, 0
	for st, r := range s.Stages[i] {
		at := i*k + st
		if r.Empty() {
			ms.dur[at], ms.fp[at] = 0, contention.Footprint{}
			continue
		}
		if first == k {
			first = st
		}
		count++
		ms.dur[at] = p.SliceTime(st, r.From, r.To)
		ms.fp[at] = p.Footprint(st, r.From, r.To)
	}
	ms.mem[i] = requestMemory(s, i)
	ms.first[i] = first
	ms.slices += count - ms.count[i]
	ms.count[i] = count
}

// Search prices the variants of a local search over one schedule, each
// differing from the schedule before it in a few requests' stage rows. It
// holds a private copy of the schedule and its measurement: SetRow and
// SetCuts validate and re-measure the replaced row alone, and Price reads
// every other row as measured once. A priced variant's Cost is
// bit-identical to Price on a schedule with the same rows. The zero value
// is ready for Reset; a Search is not safe for concurrent use, and callers
// reuse one across searches to reuse its buffers.
type Search struct {
	sched  Schedule
	flat   []LayerRange
	stages [][]LayerRange
	row    []LayerRange
	ms     measurement
	opts   Options
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
	return q.ms.measure(&q.sched)
}

// Schedule returns the search's current schedule. It aliases the search:
// it changes with every SetRow and SetCuts and is reused by the next Reset,
// so a caller that keeps it must Clone it.
func (q *Search) Schedule() *Schedule { return &q.sched }

// SetRow replaces request i's stage row with a copy of row, validating and
// re-measuring that row alone. A row Validate would reject returns its
// error and leaves the search unchanged.
func (q *Search) SetRow(i int, row []LayerRange) error {
	if err := q.sched.validateRow(i, row); err != nil {
		return err
	}
	copy(q.sched.Stages[i], row)
	q.ms.row(&q.sched, i)
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

// Price is the package-level Price of the search's current schedule under
// its options, reading the kept measurement.
func (q *Search) Price(cutoff time.Duration) (Cost, error) {
	sc := execScratchPool.Get().(*execScratch)
	defer execScratchPool.Put(sc)
	return price(&q.sched, &q.ms, sc, q.opts, cutoff)
}
