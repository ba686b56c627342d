package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	vals := []float64{5, 1, 4, 2, 3} // unsorted on purpose
	for _, c := range []struct {
		p    float64
		want float64
	}{{20, 1}, {21, 2}, {50, 3}, {80, 4}, {99, 5}, {100, 5}, {0, 1}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %g, want 0", got)
	}
	// 1..1000: the p99 is the 990th value, and exactly ten lie beyond it.
	var seq []float64
	for i := 1; i <= 1000; i++ {
		seq = append(seq, float64(i))
	}
	if got := percentile(seq, 99); got != 990 {
		t.Errorf("p99 of 1..1000 = %g, want 990", got)
	}
}

func TestTailSupportedNeedsTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want bool
	}{{0, false}, {100, false}, {999, false}, {1000, true}, {5000, true}} {
		if got := tailSupported(c.n, 99); got != c.want {
			t.Errorf("tailSupported(%d, 99) = %v, want %v", c.n, got, c.want)
		}
	}
	// The rule scales with the percentile: p50 needs only 20 samples.
	if !tailSupported(20, 50) || tailSupported(19, 50) {
		t.Error("p50 tail rule wrong around 20 samples")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	parent := interval{at(0), at(100)}
	children := []interval{
		{at(10), at(40)}, // two concurrent devices overlapping on [20,40]
		{at(20), at(50)},
		{at(45), at(48)},   // nested inside the second
		{at(90), at(130)},  // runs past the parent: clipped to [90,100]
		{at(-5), at(5)},    // starts before it: clipped to [0,5]
		{at(60), at(60)},   // empty
		{at(200), at(300)}, // outside entirely
	}
	// Covered: [0,5] + [10,50] + [90,100] = 55 ms; self = 45 ms.
	if got, want := selfTime(parent, children), 45*time.Millisecond; got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	if got := selfTime(parent, nil); got != 100*time.Millisecond {
		t.Errorf("selfTime without children = %v", got)
	}
}

func TestCapacityPicksHighestQualifyingRung(t *testing.T) {
	limit := time.Second
	rungs := []rung{
		{rate: 2, p99: 800 * time.Millisecond},
		{rate: 3, p99: time.Second},                               // exactly at the limit qualifies
		{rate: 6, p99: 1100 * time.Millisecond},                   // too slow
		{rate: 9, p99: 900 * time.Millisecond, backlogGrew: true}, // backlog grows
	}
	if got := capacity(rungs, limit); got != 3 {
		t.Errorf("capacity = %g, want 3", got)
	}
	if got := capacity(rungs[2:], limit); got != 0 {
		t.Errorf("capacity with no qualifying rung = %g, want 0", got)
	}
}

func TestBacklogGrewComparesLastQuarterWithFirst(t *testing.T) {
	ms := func(vals ...int) []time.Duration {
		out := make([]time.Duration, len(vals))
		for i, v := range vals {
			out[i] = time.Duration(v) * time.Millisecond
		}
		return out
	}
	all := []bool{true, true, true, true, true, true, true, true}
	// Stationary sojourns, with one outlier: no growth.
	if backlogGrew(ms(100, 120, 90, 110, 5000, 100, 130, 95), all) {
		t.Error("stationary sojourns judged growing")
	}
	// Last quarter's median 2.5x the first's: growth.
	if !backlogGrew(ms(100, 100, 150, 180, 200, 220, 250, 250), all) {
		t.Error("growing sojourns judged stable")
	}
	// Exactly twice is still stable.
	if backlogGrew(ms(100, 100, 150, 180, 200, 220, 200, 200), all) {
		t.Error("2x growth judged growing")
	}
	// An unfinished request means the backlog never drained.
	unfinished := append([]bool(nil), all...)
	unfinished[3] = false
	if !backlogGrew(ms(100, 100, 100, 0, 100, 100, 100, 100), unfinished) {
		t.Error("unfinished request not judged growing")
	}
}

func TestSLOMissFracCountsFailedAndUnfinished(t *testing.T) {
	limit := time.Second
	sojourns := []time.Duration{500 * time.Millisecond, 1500 * time.Millisecond, 0, time.Second, 200 * time.Millisecond}
	done := []bool{true, true, false, true, false}
	// One slow completion plus two requests never finished: 3 of 5.
	if got := sloMissFrac(sojourns, done, limit); got != 0.6 {
		t.Errorf("sloMissFrac = %g, want 0.6", got)
	}
	if got := sloMissFrac(nil, nil, limit); got != 0 {
		t.Errorf("sloMissFrac of nothing = %g", got)
	}
}
