package pipeline

import (
	"context"
	"math/rand"
	"testing"

	"hetero2pipe/internal/soc"
)

// benchSchedule builds a deterministic mixed-model schedule for the executor
// benchmarks: m requests of varying depth on the Kirin 990.
func benchSchedule(b *testing.B, m int) *Schedule {
	b.Helper()
	s := soc.Kirin990()
	profiles := zooProfiles(b, s)
	rng := rand.New(rand.NewSource(2026))
	return randomSchedule(b, rng, s, profiles, m)
}

// BenchmarkExecuteSteadyState is the headline pooled-executor benchmark: the
// per-iteration cost of simulating one schedule end to end with contention,
// the memory gate, and sampling all enabled. Run with -benchmem — steady
// state should allocate only the Result it returns.
func BenchmarkExecuteSteadyState(b *testing.B) {
	sched := benchSchedule(b, 6)
	opts := Options{Contention: true, EnforceMemory: true, SampleMemory: true}
	if _, err := ExecuteContext(context.Background(), sched, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecuteContext(context.Background(), sched, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteNoContention measures the contention-disabled fast path,
// where the per-step factor pass degenerates to min-remaining selection.
func BenchmarkExecuteNoContention(b *testing.B) {
	sched := benchSchedule(b, 6)
	opts := Options{EnforceMemory: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecuteContext(context.Background(), sched, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteSmall is the planner's inner-loop shape: few requests,
// executed once per candidate evaluation.
func BenchmarkExecuteSmall(b *testing.B) {
	sched := benchSchedule(b, 2)
	opts := DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecuteContext(context.Background(), sched, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchPriceSmall is BenchmarkExecuteSmall's schedule priced the
// way the planner prices candidates: on a Search measured once, objective
// only, no cutoff.
func BenchmarkSearchPriceSmall(b *testing.B) {
	var q Search
	if err := q.Reset(benchSchedule(b, 2), DefaultOptions()); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Price(NoCutoff); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecuteParallel exercises pool contention: GOMAXPROCS goroutines
// each executing schedules that share the package scratch pool.
func BenchmarkExecuteParallel(b *testing.B) {
	sched := benchSchedule(b, 4)
	opts := DefaultOptions()
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := ExecuteContext(context.Background(), sched, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkReferenceExecute keeps the unpooled twin's cost visible so the
// pooled speedup is measurable in the same bench run.
func BenchmarkReferenceExecute(b *testing.B) {
	sched := benchSchedule(b, 6)
	opts := Options{Contention: true, EnforceMemory: true, SampleMemory: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := referenceExecute(sched, opts); err != nil {
			b.Fatal(err)
		}
	}
}
