package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestObsCounterGaugeBasics(t *testing.T) {
	r := NewRegistry("t")
	c := r.Counter("reqs")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("reqs") != c {
		t.Fatal("same name must return the same counter")
	}

	g := r.Gauge("mem")
	g.Set(10)
	g.Add(2.5)
	if got := g.Value(); got != 12.5 {
		t.Fatalf("gauge = %v, want 12.5", got)
	}
	g.Max(11) // lower: no-op
	if got := g.Value(); got != 12.5 {
		t.Fatalf("gauge after Max(11) = %v, want 12.5", got)
	}
	g.Max(20)
	if got := g.Value(); got != 20 {
		t.Fatalf("gauge after Max(20) = %v, want 20", got)
	}
}

func TestObsHistogramBuckets(t *testing.T) {
	r := NewRegistry("t")
	h := r.Histogram("lat", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2, 100} {
		h.Observe(v)
	}
	if got := h.Count(); got != 6 {
		t.Fatalf("count = %d, want 6", got)
	}
	if got := h.Sum(); math.Abs(got-102.565) > 1e-9 {
		t.Fatalf("sum = %v, want 102.565", got)
	}
	s := r.Snapshot().Histograms["lat"]
	// Bucket semantics: first bound >= v, so 0.01 lands in bucket le=0.01.
	want := []uint64{2, 1, 1, 2}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %v, want %v", s.Buckets, want)
	}
	for i := range want {
		if s.Buckets[i] != want[i] {
			t.Fatalf("buckets = %v, want %v", s.Buckets, want)
		}
	}
	h.ObserveDuration(250 * time.Millisecond)
	if got := h.Count(); got != 7 {
		t.Fatalf("count after ObserveDuration = %d, want 7", got)
	}
}

func TestObsNilRegistrySafe(t *testing.T) {
	var r *Registry
	// Every instrument from a nil registry must accept writes.
	c := r.Counter("x")
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("detached counter must still count")
	}
	r.Gauge("y").Set(3)
	r.Histogram("z", LatencyBuckets()).Observe(0.5)
	if got := r.Snapshot(); got.Name != "" || got.Counters != nil {
		t.Fatalf("nil registry snapshot = %+v, want zero", got)
	}
	if r.Name() != "" {
		t.Fatal("nil registry name must be empty")
	}
	var sb strings.Builder
	if err := WritePrometheus(&sb, r); err != nil {
		t.Fatalf("WritePrometheus(nil): %v", err)
	}
}

// TestObsConcurrentSnapshot exercises writers racing Snapshot; run under
// -race by make check's obs target.
func TestObsConcurrentSnapshot(t *testing.T) {
	r := NewRegistry("race")
	const writers, iters = 4, 1000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("hits")
			g := r.Gauge("level")
			peak := r.Gauge("peak")
			h := r.Histogram("lat", LatencyBuckets())
			for i := 0; i < iters; i++ {
				c.Inc()
				g.Add(1)
				peak.Max(float64(i))
				h.Observe(float64(i%10) / 10)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		s := r.Snapshot()
		if s.Histograms != nil {
			h := s.Histograms["lat"]
			var total uint64
			for _, b := range h.Buckets {
				total += b
			}
			// Buckets and count are read independently while writers run, so
			// allow skew but never bucket-sum > count + writers in flight.
			if total > h.Count+writers {
				t.Fatalf("bucket sum %d way past count %d", total, h.Count)
			}
		}
	}
	wg.Wait()
	s := r.Snapshot()
	if got := s.Counters["hits"]; got != writers*iters {
		t.Fatalf("counter = %d, want %d", got, writers*iters)
	}
	if got := s.Gauges["level"]; got != writers*iters {
		t.Fatalf("gauge Add total = %v, want %d", got, writers*iters)
	}
	if got := s.Gauges["peak"]; got != iters-1 {
		t.Fatalf("gauge Max = %v, want %d", got, iters-1)
	}
	if got := s.Histograms["lat"].Count; got != writers*iters {
		t.Fatalf("histogram count = %d, want %d", got, writers*iters)
	}
}

func TestObsPrometheusFormat(t *testing.T) {
	r := NewRegistry("h2pipe")
	r.Counter("windows_total").Add(3)
	r.Gauge("peak_memory_bytes").Set(1024)
	h := r.Histogram("plan_seconds", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var sb strings.Builder
	if err := WritePrometheus(&sb, r); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE h2pipe_windows_total counter",
		"h2pipe_windows_total 3",
		"# TYPE h2pipe_peak_memory_bytes gauge",
		"h2pipe_peak_memory_bytes 1024",
		"# TYPE h2pipe_plan_seconds histogram",
		`h2pipe_plan_seconds_bucket{le="0.1"} 1`,
		`h2pipe_plan_seconds_bucket{le="1"} 2`,
		`h2pipe_plan_seconds_bucket{le="+Inf"} 3`,
		"h2pipe_plan_seconds_sum 5.55",
		"h2pipe_plan_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestObsReportJSON(t *testing.T) {
	rep := &RunReport{
		SoC:       "kirin990",
		Requests:  4,
		Completed: 4,
		Planner:   PlannerReport{CacheHits: 6, CacheMisses: 2, CacheHitRatio: 0.75},
		Stream:    StreamReport{Windows: 2, DeadlineMisses: 1},
		Windows:   []WindowReport{{Index: 0, Requests: 2}, {Index: 1, Requests: 2, Interrupted: true}},
	}
	raw, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back RunReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Planner.CacheHits != 6 || back.Stream.Windows != 2 || !back.Windows[1].Interrupted {
		t.Fatalf("round-trip mismatch: %+v", back)
	}
}

func TestObsBucketHelpers(t *testing.T) {
	for name, b := range map[string][]float64{"latency": LatencyBuckets(), "slowdown": SlowdownBuckets()} {
		if len(b) == 0 {
			t.Fatalf("%s buckets empty", name)
		}
		for i := 1; i < len(b); i++ {
			if b[i] <= b[i-1] {
				t.Fatalf("%s buckets not strictly ascending: %v", name, b)
			}
		}
	}
}
