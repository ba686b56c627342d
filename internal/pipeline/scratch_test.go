package pipeline

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// execOptionSets covers every option combination the executor branches on.
var execOptionSets = []Options{
	{},
	{Contention: true},
	{EnforceMemory: true},
	{SampleMemory: true},
	{Contention: true, EnforceMemory: true},
	{Contention: true, EnforceMemory: true, SampleMemory: true},
}

// zooProfiles builds one profile per zoo model on s.
func zooProfiles(tb testing.TB, s *soc.SoC) map[string]*profile.Profile {
	tb.Helper()
	zoo := model.Names()
	out := make(map[string]*profile.Profile, len(zoo))
	for _, name := range zoo {
		p, err := profile.New(s, model.MustByName(name))
		if err != nil {
			tb.Fatal(err)
		}
		out[name] = p
	}
	return out
}

// randomSchedule builds a random valid schedule of m requests drawn from the
// zoo.
func randomSchedule(tb testing.TB, rng *rand.Rand, s *soc.SoC,
	profiles map[string]*profile.Profile, m int) *Schedule {
	tb.Helper()
	zoo := model.Names()
	profs := make([]*profile.Profile, m)
	cuts := make([]Cuts, m)
	for i := 0; i < m; i++ {
		p := profiles[zoo[rng.Intn(len(zoo))]]
		profs[i] = p
		cuts[i] = randomValidCuts(rng, p, s.NumProcessors())
	}
	sched, err := FromCuts(s, profs, cuts)
	if err != nil {
		tb.Fatalf("FromCuts: %v", err)
	}
	return sched
}

// requireIdentical asserts byte-identity of two results, field by field so a
// divergence names the axis that moved. Float comparisons are exact (==),
// not tolerance-based: the pooled executor must replay the reference's
// arithmetic bit for bit.
func requireIdentical(tb testing.TB, label string, got, want *Result) {
	tb.Helper()
	if got.Makespan != want.Makespan {
		tb.Fatalf("%s: makespan %v != %v", label, got.Makespan, want.Makespan)
	}
	if !reflect.DeepEqual(got.Completions, want.Completions) {
		tb.Fatalf("%s: completions diverge:\n got %v\nwant %v", label, got.Completions, want.Completions)
	}
	if !reflect.DeepEqual(got.Timeline, want.Timeline) {
		tb.Fatalf("%s: timeline diverges:\n got %+v\nwant %+v", label, got.Timeline, want.Timeline)
	}
	if got.BubbleTime != want.BubbleTime {
		tb.Fatalf("%s: bubble time %v != %v", label, got.BubbleTime, want.BubbleTime)
	}
	if got.PeakMemoryBytes != want.PeakMemoryBytes {
		tb.Fatalf("%s: peak memory %d != %d", label, got.PeakMemoryBytes, want.PeakMemoryBytes)
	}
	if got.AdmissionStalls != want.AdmissionStalls {
		tb.Fatalf("%s: admission stalls %d != %d", label, got.AdmissionStalls, want.AdmissionStalls)
	}
	if !reflect.DeepEqual(got.MemTrace, want.MemTrace) {
		tb.Fatalf("%s: mem trace diverges:\n got %+v\nwant %+v", label, got.MemTrace, want.MemTrace)
	}
	if got.EnergyJoules != want.EnergyJoules {
		tb.Fatalf("%s: energy %v != %v", label, got.EnergyJoules, want.EnergyJoules)
	}
}

// TestDifferentialExecScratch: the pooled executor must be byte-identical to
// the unpooled reference on randomized schedules under every option set —
// including the same scratch being reused across schedules of different
// shapes, which is exactly the pollution a stale buffer would cause.
func TestDifferentialExecScratch(t *testing.T) {
	s := soc.Kirin990()
	profiles := zooProfiles(t, s)
	rng := rand.New(rand.NewSource(9001))
	for trial := 0; trial < 200; trial++ {
		m := 1 + rng.Intn(7)
		sched := randomSchedule(t, rng, s, profiles, m)
		opts := execOptionSets[trial%len(execOptionSets)]
		want, wantErr := referenceExecute(sched, opts)
		got, gotErr := ExecuteContext(t.Context(), sched, opts)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: error divergence: pooled %v, reference %v", trial, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		requireIdentical(t, fmt.Sprintf("trial %d (opts %+v)", trial, opts), got, want)
	}
}

// TestExecScratchTightMemory drives the admission-stall path (the Eq. (6)
// memory constraint) under a shrunken capacity so stalls, peak memory and
// the stall episode counter all flow through the pooled frontier logic.
func TestExecScratchTightMemory(t *testing.T) {
	s := soc.Kirin990()
	s.MemoryCapacityBytes = 512 << 20 // force admission serialisation
	profiles := zooProfiles(t, s)
	rng := rand.New(rand.NewSource(4242))
	sawStall := false
	for trial := 0; trial < 80; trial++ {
		m := 2 + rng.Intn(5)
		sched := randomSchedule(t, rng, s, profiles, m)
		opts := Options{Contention: true, EnforceMemory: true, SampleMemory: trial%2 == 0}
		want, wantErr := referenceExecute(sched, opts)
		got, gotErr := ExecuteContext(t.Context(), sched, opts)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("trial %d: error divergence: pooled %v, reference %v", trial, gotErr, wantErr)
		}
		if wantErr != nil {
			continue
		}
		requireIdentical(t, fmt.Sprintf("tight trial %d", trial), got, want)
		if got.AdmissionStalls > 0 {
			sawStall = true
		}
	}
	if !sawStall {
		t.Fatal("tight-memory sweep never exercised an admission stall")
	}
}

// TestExecScratchConcurrent is the pooled-executor race gate: many
// goroutines share the package pool while executing distinct schedules, and
// every result must still match the sequential reference. Run under -race.
func TestExecScratchConcurrent(t *testing.T) {
	s := soc.Kirin990()
	profiles := zooProfiles(t, s)
	rng := rand.New(rand.NewSource(77))
	const nSched = 16
	scheds := make([]*Schedule, nSched)
	want := make([]*Result, nSched)
	for i := range scheds {
		scheds[i] = randomSchedule(t, rng, s, profiles, 1+rng.Intn(6))
		w, err := referenceExecute(scheds[i], DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		want[i] = w
	}
	const workers = 8
	const rounds = 25
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(seed)))
			for r := 0; r < rounds; r++ {
				i := rng.Intn(nSched)
				got, err := ExecuteContext(t.Context(), scheds[i], DefaultOptions())
				if err != nil {
					errs <- err
					return
				}
				if got.Makespan != want[i].Makespan ||
					got.EnergyJoules != want[i].EnergyJoules ||
					got.BubbleTime != want[i].BubbleTime ||
					!reflect.DeepEqual(got.Completions, want[i].Completions) {
					errs <- fmt.Errorf("worker %d: schedule %d diverged under concurrency", seed, i)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestExecutorAllocBudget pins the steady-state allocation count: once the
// pool is warm, an execution may allocate only the Result it returns — the
// struct, Completions, Timeline, and the sort — not per-call scratch. The
// budget is deliberately a little above the measured count (~5) to absorb a
// GC emptying the pool mid-run, and far below the ~60 the unpooled executor
// spent.
func TestExecutorAllocBudget(t *testing.T) {
	s := soc.Kirin990()
	profiles := zooProfiles(t, s)
	rng := rand.New(rand.NewSource(13))
	sched := randomSchedule(t, rng, s, profiles, 4)
	opts := DefaultOptions()
	for i := 0; i < 3; i++ { // warm the pool
		if _, err := ExecuteContext(t.Context(), sched, opts); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := ExecuteContext(t.Context(), sched, opts); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 12
	if avg > budget {
		t.Fatalf("steady-state executor allocates %.1f/op, budget %d", avg, budget)
	}
}

// TestExecScratchMemTracePrealloc: with SampleMemory set the trace must be
// written into its preallocated 2·slices+1 backing without regrowth.
func TestExecScratchMemTracePrealloc(t *testing.T) {
	s := soc.Kirin990()
	profiles := zooProfiles(t, s)
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 40; trial++ {
		sched := randomSchedule(t, rng, s, profiles, 1+rng.Intn(6))
		slices := 0
		for i := range sched.Stages {
			for _, r := range sched.Stages[i] {
				if !r.Empty() {
					slices++
				}
			}
		}
		res, err := ExecuteContext(t.Context(), sched, Options{Contention: true, EnforceMemory: true, SampleMemory: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.MemTrace) == 0 {
			t.Fatalf("trial %d: sampling enabled but trace empty", trial)
		}
		bound := 2*slices + 1
		if len(res.MemTrace) > bound {
			t.Fatalf("trial %d: %d samples exceed the event bound %d", trial, len(res.MemTrace), bound)
		}
		if cap(res.MemTrace) != bound {
			t.Fatalf("trial %d: trace capacity %d, want the preallocated %d", trial, cap(res.MemTrace), bound)
		}
	}
}

// FuzzExecScratch fuzzes the pooled-vs-unpooled differential: any (seed,
// request count, option bits) triple must produce byte-identical results,
// including MemTrace, PeakMemoryBytes and AdmissionStalls, Search.Price
// must agree with ExecuteContext on the Cost and on every cutoff probe, and
// a Search over the schedule must price every random row replacement like
// a fresh Search and ExecuteContext.
func FuzzExecScratch(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(3))
	f.Add(int64(42), uint8(1), uint8(0))
	f.Add(int64(7), uint8(6), uint8(7))
	f.Add(int64(-12345), uint8(4), uint8(5))
	s := soc.Kirin990()
	profiles := zooProfiles(f, s)
	f.Fuzz(func(t *testing.T, seed int64, m uint8, optBits uint8) {
		rng := rand.New(rand.NewSource(seed))
		nReq := 1 + int(m)%7
		sched := randomSchedule(t, rng, s, profiles, nReq)
		opts := Options{
			Contention:    optBits&1 != 0,
			EnforceMemory: optBits&2 != 0,
			SampleMemory:  optBits&4 != 0,
		}
		want, wantErr := referenceExecute(sched, opts)
		got, gotErr := ExecuteContext(t.Context(), sched, opts)
		if (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("error divergence: pooled %v, reference %v", gotErr, wantErr)
		}
		if wantErr != nil {
			return
		}
		requireIdentical(t, "fuzz", got, want)
		requirePriceMatches(t, "fuzz", sched, opts)
		requireSearchMatches(t, "fuzz", rng, sched, opts)
		// Sanity only, not identity: Slowdown divides Duration-quantised
		// wall time by solo seconds, so for microsecond-scale slices the
		// 1 ns rounding can land noticeably below 1. The coarse floor only
		// guards against gross corruption (NaN, negative, half-lost time).
		for _, e := range got.Timeline {
			if math.IsNaN(e.Slowdown) || e.Slowdown < 0.999 {
				t.Fatalf("slowdown %v below 1", e.Slowdown)
			}
		}
	})
}
