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
		for _, d := range []time.Duration{-1, 0, 1} {
			cutoff := want.Makespan + d
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

// TestPriceMatchesExecute runs the pooled-executor differential corpus —
// 200 randomized schedules cycling through every option set, then the
// tight-memory admission sweep — through Search.Price and ExecuteContext
// side by side, and walks a Search over each schedule through random row
// replacements.
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
