package pipeline

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"hetero2pipe/internal/soc"
)

// freshPrice prices sched on a fresh Search reset to it, the way the
// planner prices a schedule it has just assembled.
func freshPrice(sched *Schedule, opts Options, cutoff time.Duration) (Cost, error) {
	var q Search
	if err := q.Reset(sched, opts); err != nil {
		return Cost{}, err
	}
	return q.Price(cutoff)
}

// requirePriceMatches asserts that Search.Price agrees with ExecuteContext
// on sched: with no cutoff every Cost field is bit-identical to its Result
// counterpart, and probing the cutoff at the makespan −1 ns, the makespan
// itself and +1 ns returns ErrCutoff exactly when the makespan is ≥ the
// cutoff.
func requirePriceMatches(tb testing.TB, label string, sched *Schedule, opts Options) {
	tb.Helper()
	res, err := ExecuteContext(tb.Context(), sched, opts)
	if err != nil {
		if _, perr := freshPrice(sched, opts, NoCutoff); perr == nil {
			tb.Fatalf("%s: Execute failed (%v) but Price succeeded", label, err)
		}
		return
	}
	cost, err := freshPrice(sched, opts, NoCutoff)
	if err != nil {
		tb.Fatalf("%s: Price: %v", label, err)
	}
	want := Cost{
		Makespan:        res.Makespan,
		EnergyJoules:    res.EnergyJoules,
		PeakMemoryBytes: res.PeakMemoryBytes,
		Completed:       len(res.Completions),
	}
	if cost != want {
		tb.Fatalf("%s: Price = %+v, Execute = %+v", label, cost, want)
	}
	if cost.Throughput() != res.Throughput() {
		tb.Fatalf("%s: throughput %v != %v", label, cost.Throughput(), res.Throughput())
	}
	for _, d := range []time.Duration{-1, 0, 1} {
		cutoff := res.Makespan + d
		got, err := freshPrice(sched, opts, cutoff)
		if res.Makespan >= cutoff {
			if !errors.Is(err, ErrCutoff) {
				tb.Fatalf("%s: cutoff %v at makespan %v: got (%+v, %v), want ErrCutoff", label, cutoff, res.Makespan, got, err)
			}
			continue
		}
		if err != nil || got != want {
			tb.Fatalf("%s: cutoff %v above makespan %v: got (%+v, %v), want %+v", label, cutoff, res.Makespan, got, err, want)
		}
	}
}

// requireSearchMatches walks a Search over sched through rows replaced at
// random: random valid cuts, single-processor rows, and rows Validate
// rejects. After each replacement the search's Cost must equal that of a
// fresh Search over a copy of its schedule, on every cutoff probe, and that
// copy must price like ExecuteContext runs it (requirePriceMatches). A
// rejected row must leave the search unchanged, and the search must never
// write sched.
func requireSearchMatches(tb testing.TB, label string, rng *rand.Rand, sched *Schedule, opts Options) {
	tb.Helper()
	orig := sched.Clone()
	var q Search
	if err := q.Reset(sched, opts); err != nil {
		tb.Fatalf("%s: Reset: %v", label, err)
	}
	k := sched.NumStages()
	for step := 0; step < 6; step++ {
		i := rng.Intn(sched.NumRequests())
		n := sched.Profiles[i].NumLayers()
		before := q.Schedule().Clone()
		var err error
		switch step % 3 {
		case 0:
			err = q.SetCuts(i, randomValidCuts(rng, sched.Profiles[i], k))
		case 1:
			err = q.SetRow(i, SingleProcessor(n, rng.Intn(k), k).RangesOf())
		default:
			short := SingleProcessor(n, rng.Intn(k), k).RangesOf()
			for st := range short {
				if !short[st].Empty() {
					short[st].To-- // covers one layer too few
				}
			}
			if err = q.SetRow(i, short); err == nil {
				tb.Fatalf("%s step %d: SetRow accepted a row covering %d of %d layers", label, step, n-1, n)
			}
		}
		if err != nil {
			if !reflect.DeepEqual(q.Schedule(), before) {
				tb.Fatalf("%s step %d: rejected row %d (%v) changed the search", label, step, i, err)
			}
			continue
		}
		cp := q.Schedule().Clone()
		stepLabel := fmt.Sprintf("%s step %d (row %d)", label, step, i)
		requirePriceMatches(tb, stepLabel, cp, opts)
		want, wantErr := freshPrice(cp, opts, NoCutoff)
		got, gotErr := q.Price(NoCutoff)
		if (wantErr == nil) != (gotErr == nil) || got != want {
			tb.Fatalf("%s: search Price = (%+v, %v), fresh Price = (%+v, %v)", stepLabel, got, gotErr, want, wantErr)
		}
		if wantErr != nil {
			continue
		}
		for _, cutoff := range cutoffProbes(want.Makespan) {
			w, werr := freshPrice(cp, opts, cutoff)
			g, gerr := q.Price(cutoff)
			if errors.Is(gerr, ErrCutoff) != errors.Is(werr, ErrCutoff) || g != w {
				tb.Fatalf("%s: cutoff %v: search Price = (%+v, %v), fresh Price = (%+v, %v)", stepLabel, cutoff, g, gerr, w, werr)
			}
		}
	}
	if !reflect.DeepEqual(sched, orig) {
		tb.Fatalf("%s: the search wrote the schedule it was reset to", label)
	}
}

// cutoffProbes are the cutoffs a priced run is compared at: just below, at
// and just above its makespan, and at a quarter, a half and three quarters
// of it, where a run resumed from a record taken late must stop with
// ErrCutoff as a full run does.
func cutoffProbes(makespan time.Duration) []time.Duration {
	return []time.Duration{makespan - 1, makespan, makespan + 1, makespan / 4, makespan / 2, makespan * 3 / 4}
}

// requireTailWalkMatches walks a Search over sched the way the planner's
// tail search does — rows from the last to the first, each row's
// single-processor variants in processor order, priced with the
// incumbent's makespan as the cutoff, the incumbent's row restored after a
// losing variant — so every Price resumes from a record the walk left
// valid, and every SoloMakespan from the flow-shop prefix it kept. Each
// variant must price like a fresh Search over a copy of the schedule, and
// its SoloMakespan must equal the fresh Search's and bound its makespan
// (requireSoloBound).
func requireTailWalkMatches(tb testing.TB, label string, sched *Schedule, opts Options) {
	tb.Helper()
	var q Search
	if err := q.Reset(sched, opts); err != nil {
		tb.Fatalf("%s: Reset: %v", label, err)
	}
	m, k := sched.NumRequests(), sched.NumStages()
	// Replacing the last row with itself has the next run keep a record of
	// every row.
	if err := q.SetRow(m-1, sched.Stages[m-1]); err != nil {
		tb.Fatalf("%s: SetRow: %v", label, err)
	}
	best, err := q.Price(NoCutoff)
	if err != nil {
		return // an unrunnable schedule: requirePriceMatches covers it
	}
	if m > 1 && q.valid != m-1 {
		tb.Fatalf("%s: a full run after replacing row %d left records of rows 1..%d, want 1..%d", label, m-1, q.valid, m-1)
	}
	requireSoloBound(tb, label, sched, q.SoloMakespan(m-1, sched.Stages[m-1]), best.Makespan)
	inc := make([]LayerRange, k)
	for i := m - 1; i >= 0; i-- {
		n := sched.Profiles[i].NumLayers()
		copy(inc, q.Schedule().Stages[i])
		for proc := 0; proc < k; proc++ {
			row := SingleProcessor(n, proc, k).RangesOf()
			solo := q.SoloMakespan(i, row)
			if q.SetRow(i, row) != nil {
				continue
			}
			cp := q.Schedule().Clone()
			stepLabel := fmt.Sprintf("%s row %d on stage %d", label, i, proc)
			var fresh Search
			if err := fresh.Reset(cp, opts); err != nil {
				tb.Fatalf("%s: Reset: %v", stepLabel, err)
			}
			if want := fresh.SoloMakespan(0, cp.Stages[0]); solo != want {
				tb.Fatalf("%s: SoloMakespan %v, a fresh Search's %v", stepLabel, solo, want)
			}
			if full, err := freshPrice(cp, opts, NoCutoff); err == nil {
				requireSoloBound(tb, stepLabel, cp, solo, full.Makespan)
			}
			want, werr := freshPrice(cp, opts, best.Makespan)
			got, gerr := q.Price(best.Makespan)
			if errors.Is(gerr, ErrCutoff) != errors.Is(werr, ErrCutoff) || (gerr == nil) != (werr == nil) || got != want {
				tb.Fatalf("%s: search Price = (%+v, %v), fresh Price = (%+v, %v)", stepLabel, got, gerr, want, werr)
			}
			if gerr == nil {
				best = got
				copy(inc, q.Schedule().Stages[i])
			}
		}
		if err := q.SetRow(i, inc); err != nil {
			tb.Fatalf("%s: restoring row %d: %v", label, i, err)
		}
	}
}

// requireSoloBound checks a schedule's SoloMakespan against its priced
// makespan — never above it by m·K ns or more (one truncated nanosecond per
// clock step at most) — and against the processor-load bound it replaced
// in the tail search: never below any stage's summed solo time.
func requireSoloBound(tb testing.TB, label string, sched *Schedule, solo, makespan time.Duration) {
	tb.Helper()
	slack := time.Duration(sched.NumRequests() * sched.NumStages())
	if solo-slack >= makespan {
		tb.Fatalf("%s: SoloMakespan %v exceeds the priced makespan %v by %d ns or more", label, solo, makespan, slack)
	}
	for st := 0; st < sched.NumStages(); st++ {
		var load time.Duration
		for i := range sched.NumRequests() {
			load += sched.StageTime(i, st)
		}
		if solo < load {
			tb.Fatalf("%s: SoloMakespan %v below stage %d's solo load %v", label, solo, st, load)
		}
	}
}

// TestPriceMatchesExecute runs the pooled-executor differential corpus —
// 200 randomized schedules cycling through every option set, then the
// tight-memory admission sweep — through Search.Price and ExecuteContext
// side by side, walks a Search over each schedule through random row
// replacements, and through the tail search's downward walk.
func TestPriceMatchesExecute(t *testing.T) {
	s := soc.Kirin990()
	profiles := zooProfiles(t, s)
	rng := rand.New(rand.NewSource(9001))
	for trial := 0; trial < 200; trial++ {
		sched := randomSchedule(t, rng, s, profiles, 1+rng.Intn(7))
		opts := execOptionSets[trial%len(execOptionSets)]
		label := fmt.Sprintf("trial %d (opts %+v)", trial, opts)
		requirePriceMatches(t, label, sched, opts)
		requireSearchMatches(t, label, rng, sched, opts)
		requireTailWalkMatches(t, label, sched, opts)
	}

	tight := soc.Kirin990()
	tight.MemoryCapacityBytes = 512 << 20 // force admission serialisation
	profiles = zooProfiles(t, tight)
	rng = rand.New(rand.NewSource(4242))
	for trial := 0; trial < 80; trial++ {
		sched := randomSchedule(t, rng, tight, profiles, 2+rng.Intn(5))
		opts := Options{Contention: true, EnforceMemory: true, SampleMemory: trial%2 == 0}
		label := fmt.Sprintf("tight trial %d", trial)
		requirePriceMatches(t, label, sched, opts)
		requireSearchMatches(t, label, rng, sched, opts)
		requireTailWalkMatches(t, label, sched, opts)
	}
}

// TestPriceEdges covers the runs the probes above cannot reach: an empty
// schedule costs nothing, and a cutoff at or below zero fires before the
// clock starts because every makespan is ≥ 0.
func TestPriceEdges(t *testing.T) {
	s := soc.Kirin990()
	empty := &Schedule{SoC: s}
	if c, err := freshPrice(empty, DefaultOptions(), 1); err != nil || c != (Cost{}) {
		t.Fatalf("empty schedule: got (%+v, %v), want the zero Cost", c, err)
	}
	if _, err := freshPrice(empty, DefaultOptions(), 0); !errors.Is(err, ErrCutoff) {
		t.Fatalf("empty schedule at cutoff 0: got %v, want ErrCutoff", err)
	}
	sched := randomSchedule(t, rand.New(rand.NewSource(5)), s, zooProfiles(t, s), 3)
	if _, err := freshPrice(sched, DefaultOptions(), -time.Second); !errors.Is(err, ErrCutoff) {
		t.Fatalf("negative cutoff: got %v, want ErrCutoff", err)
	}
}

// TestPriceAllocBudget pins Search.Price's steady-state allocation count
// beside TestExecutorAllocBudget's: once the pool is warm a priced run
// allocates nothing — the Cost is a value. The budget of one absorbs a GC
// emptying the pool mid-measurement; under -race, where the pool drops a
// quarter of its Puts and each miss sizes a fresh scratch (3–4 allocations
// a run measured), it widens to six.
func TestPriceAllocBudget(t *testing.T) {
	s := soc.Kirin990()
	profiles := zooProfiles(t, s)
	sched := randomSchedule(t, rand.New(rand.NewSource(13)), s, profiles, 4)
	var q Search
	if err := q.Reset(sched, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ { // warm the pool
		if _, err := q.Price(NoCutoff); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := q.Price(NoCutoff); err != nil {
			t.Fatal(err)
		}
	})
	budget := 1
	if raceEnabled {
		budget = 6
	}
	if avg > float64(budget) {
		t.Fatalf("steady-state Search.Price allocates %.1f/op, budget %d", avg, budget)
	}
}
