package pipeline

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"hetero2pipe/internal/contention"
	"hetero2pipe/internal/soc"
)

// referenceExecute is the pre-pooling executor, kept verbatim as the
// unpooled twin of the differential suite: it allocates fresh scratch on
// every call, uses the original O(k)-scan firstPendingStage/depSatisfied
// helpers and the per-slice allocating factorOf, and must produce a Result
// byte-identical to ExecuteContext on every schedule. Observability hooks
// (spans, metrics, logger) are omitted — they never influence the Result.
func referenceExecute(s *Schedule, opts Options) (*Result, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	m, k := s.NumRequests(), s.NumStages()
	if m == 0 {
		return &Result{}, nil
	}

	// stageDone[i][stage] = completion time, or -1 if pending.
	stageDone := make([][]time.Duration, m)
	for i := range stageDone {
		stageDone[i] = make([]time.Duration, k)
		for j := range stageDone[i] {
			stageDone[i][j] = -1
		}
	}
	nextReq := make([]int, k)
	busy := make([]bool, k)
	admitted := make([]bool, m)
	stalled := make([]bool, m)
	finishedReq := make([]bool, m)
	memUse := int64(0)
	memOf := make([]int64, m)
	for i := 0; i < m; i++ {
		memOf[i] = referenceMemory(s, i)
	}

	res := &Result{Completions: make([]time.Duration, m)}
	var running []*execState
	now := time.Duration(0)

	firstPendingStage := func(i int) (int, bool) {
		for st := 0; st < k; st++ {
			if s.Stages[i][st].Empty() {
				continue
			}
			if stageDone[i][st] < 0 {
				return st, false
			}
		}
		return 0, true
	}

	depSatisfied := func(i, st int) bool {
		for p := 0; p < st; p++ {
			if !s.Stages[i][p].Empty() && stageDone[i][p] < 0 {
				return false
			}
		}
		return true
	}

	admit := func(i int) bool {
		if admitted[i] {
			return true
		}
		if i > 0 && !admitted[i-1] {
			return false
		}
		if opts.EnforceMemory && memUse+memOf[i] > s.SoC.MemoryCapacityBytes && memUse > 0 {
			return false
		}
		admitted[i] = true
		memUse += memOf[i]
		if memUse > res.PeakMemoryBytes {
			res.PeakMemoryBytes = memUse
		}
		return true
	}

	finishRequest := func(i int, at time.Duration) {
		finishedReq[i] = true
		res.Completions[i] = at
		memUse -= memOf[i]
	}

	sample := func() {
		if !opts.SampleMemory {
			return
		}
		var demand float64
		for _, r := range running {
			demand += r.fp.DemandGBps
		}
		res.MemTrace = append(res.MemTrace, MemSample{At: now, UsedBytes: memUse, DemandGBps: demand})
	}

	tryStart := func() bool {
		started := false
		for st := 0; st < k; st++ {
			for !busy[st] && nextReq[st] < m {
				i := nextReq[st]
				r := s.Stages[i][st]
				if r.Empty() {
					nextReq[st]++
					continue
				}
				if !depSatisfied(i, st) {
					break
				}
				if !admit(i) {
					if !stalled[i] {
						stalled[i] = true
						res.AdmissionStalls++
					}
					break
				}
				dur := s.StageTime(i, st)
				if dur == soc.InfDuration {
					break
				}
				es := &execState{
					req: i, stage: st,
					remaining: dur.Seconds(),
					soloSec:   dur.Seconds(),
					fp:        s.Profiles[i].Footprint(st, r.From, r.To),
					start:     now,
				}
				running = append(running, es)
				busy[st] = true
				nextReq[st]++
				started = true
			}
		}
		if started {
			sample()
		}
		return started
	}

	factorOf := func(es *execState) float64 {
		if !opts.Contention {
			return 1
		}
		others := make([]contention.Footprint, 0, len(running)-1)
		for _, o := range running {
			if o != es {
				others = append(others, o.fp)
			}
		}
		return contention.Slowdown(s.SoC.EffectiveBusBandwidthGBps(), es.fp, others)
	}

	tryStart()

	for len(running) > 0 {
		best := -1
		bestDt := math.Inf(1)
		factors := make([]float64, len(running))
		for idx, es := range running {
			f := factorOf(es)
			factors[idx] = f
			dt := es.remaining * f
			if dt < bestDt {
				bestDt = dt
				best = idx
			}
		}
		if best < 0 || math.IsInf(bestDt, 1) {
			return nil, errors.New("pipeline: executor stuck with no finishable slice")
		}
		now += time.Duration(bestDt * float64(time.Second))
		for idx, es := range running {
			es.remaining -= bestDt / factors[idx]
			if es.remaining < 1e-12 {
				es.remaining = 0
			}
		}
		var still []*execState
		for _, es := range running {
			if es.remaining > 0 {
				still = append(still, es)
				continue
			}
			stageDone[es.req][es.stage] = now
			busy[es.stage] = false
			slow := 1.0
			if es.soloSec > 0 {
				slow = (now - es.start).Seconds() / es.soloSec
			}
			res.Timeline = append(res.Timeline, SliceExec{
				Request: es.req, Stage: es.stage,
				Start: es.start, End: now, Slowdown: slow,
			})
			if _, done := firstPendingStage(es.req); done && !finishedReq[es.req] {
				finishRequest(es.req, now)
			}
		}
		running = still
		sample()
		tryStart()
	}

	for i := 0; i < m; i++ {
		if !finishedReq[i] {
			return nil, fmt.Errorf("pipeline: request %d never completed (deadlock)", i)
		}
	}

	res.Makespan = now
	res.BubbleTime = refMeasureBubbles(res.Timeline, k)
	res.EnergyJoules = refMeasureEnergy(s.SoC, res.Timeline, now)
	sort.Slice(res.Timeline, func(a, b int) bool {
		if res.Timeline[a].Start != res.Timeline[b].Start {
			return res.Timeline[a].Start < res.Timeline[b].Start
		}
		return res.Timeline[a].Stage < res.Timeline[b].Stage
	})
	return res, nil
}

// refMeasureEnergy is the original per-call-allocating energy rollup.
func refMeasureEnergy(s *soc.SoC, timeline []SliceExec, makespan time.Duration) float64 {
	busy := make([]time.Duration, s.NumProcessors())
	for _, e := range timeline {
		busy[e.Stage] += e.End - e.Start
	}
	return s.EnergyRollup(busy, makespan)
}

// refMeasureBubbles is the original sort-based bubble accounting; the
// one-pass replacement in the executor must total identically because each
// processor's spans are serial and already emitted in start order.
func refMeasureBubbles(timeline []SliceExec, stages int) time.Duration {
	type span struct{ start, end time.Duration }
	perStage := make([][]span, stages)
	for _, e := range timeline {
		perStage[e.Stage] = append(perStage[e.Stage], span{e.Start, e.End})
	}
	var total time.Duration
	for _, spans := range perStage {
		if len(spans) == 0 {
			continue
		}
		sort.Slice(spans, func(a, b int) bool { return spans[a].start < spans[b].start })
		cursor := spans[0].end
		for _, sp := range spans[1:] {
			if sp.start > cursor {
				total += sp.start - cursor
			}
			if sp.end > cursor {
				cursor = sp.end
			}
		}
	}
	return total
}

// referenceMemory returns the resident bytes of request i across its
// slices, summed in stage order.
func referenceMemory(s *Schedule, i int) int64 {
	var total int64
	for _, r := range s.Stages[i] {
		if !r.Empty() {
			total += s.Profiles[i].MemoryBytes(r.From, r.To)
		}
	}
	return total
}
