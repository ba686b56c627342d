package pipeline

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"hetero2pipe/internal/soc"
)

// requirePriceMatches asserts that Price agrees with ExecuteContext on
// sched: with no cutoff every Cost field is bit-identical to its Result
// counterpart, and probing the cutoff at the makespan −1 ns, the makespan
// itself and +1 ns returns ErrCutoff exactly when the makespan is ≥ the
// cutoff.
func requirePriceMatches(tb testing.TB, label string, sched *Schedule, opts Options) {
	tb.Helper()
	res, err := ExecuteContext(tb.Context(), sched, opts)
	if err != nil {
		if _, perr := Price(sched, opts, NoCutoff); perr == nil {
			tb.Fatalf("%s: Execute failed (%v) but Price succeeded", label, err)
		}
		return
	}
	cost, err := Price(sched, opts, NoCutoff)
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
		got, err := Price(sched, opts, cutoff)
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

// TestPriceMatchesExecute runs the pooled-executor differential corpus —
// 200 randomized schedules cycling through every option set, then the
// tight-memory admission sweep — through Price and ExecuteContext side by
// side.
func TestPriceMatchesExecute(t *testing.T) {
	s := soc.Kirin990()
	profiles := zooProfiles(t, s)
	rng := rand.New(rand.NewSource(9001))
	for trial := 0; trial < 200; trial++ {
		sched := randomSchedule(t, rng, s, profiles, 1+rng.Intn(7))
		opts := execOptionSets[trial%len(execOptionSets)]
		requirePriceMatches(t, fmt.Sprintf("trial %d (opts %+v)", trial, opts), sched, opts)
	}

	tight := soc.Kirin990()
	tight.MemoryCapacityBytes = 512 << 20 // force admission serialisation
	profiles = zooProfiles(t, tight)
	rng = rand.New(rand.NewSource(4242))
	for trial := 0; trial < 80; trial++ {
		sched := randomSchedule(t, rng, tight, profiles, 2+rng.Intn(5))
		opts := Options{Contention: true, EnforceMemory: true, SampleMemory: trial%2 == 0}
		requirePriceMatches(t, fmt.Sprintf("tight trial %d", trial), sched, opts)
	}
}

// TestPriceEdges covers the runs the probes above cannot reach: an empty
// schedule costs nothing, and a cutoff at or below zero fires before the
// clock starts because every makespan is ≥ 0.
func TestPriceEdges(t *testing.T) {
	s := soc.Kirin990()
	empty := &Schedule{SoC: s}
	if c, err := Price(empty, DefaultOptions(), 1); err != nil || c != (Cost{}) {
		t.Fatalf("empty schedule: got (%+v, %v), want the zero Cost", c, err)
	}
	if _, err := Price(empty, DefaultOptions(), 0); !errors.Is(err, ErrCutoff) {
		t.Fatalf("empty schedule at cutoff 0: got %v, want ErrCutoff", err)
	}
	sched := randomSchedule(t, rand.New(rand.NewSource(5)), s, zooProfiles(t, s), 3)
	if _, err := Price(sched, DefaultOptions(), -time.Second); !errors.Is(err, ErrCutoff) {
		t.Fatalf("negative cutoff: got %v, want ErrCutoff", err)
	}
}

// TestPriceAllocBudget pins Price's steady-state allocation count beside
// TestExecutorAllocBudget's: once the pool is warm a priced run allocates
// nothing — the Cost is a value. The budget of one absorbs a GC emptying
// the pool mid-measurement; under -race, where the pool drops a quarter of
// its Puts and each miss sizes a fresh scratch (3–4 allocations a run
// measured), it widens to six.
func TestPriceAllocBudget(t *testing.T) {
	s := soc.Kirin990()
	profiles := zooProfiles(t, s)
	sched := randomSchedule(t, rand.New(rand.NewSource(13)), s, profiles, 4)
	opts := DefaultOptions()
	for i := 0; i < 3; i++ { // warm the pool
		if _, err := Price(sched, opts, NoCutoff); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := Price(sched, opts, NoCutoff); err != nil {
			t.Fatal(err)
		}
	})
	budget := 1
	if raceEnabled {
		budget = 6
	}
	if avg > float64(budget) {
		t.Fatalf("steady-state Price allocates %.1f/op, budget %d", avg, budget)
	}
}
