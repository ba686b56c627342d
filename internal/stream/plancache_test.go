package stream

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/trace"
)

// newPlanCacheScheduler builds a scheduler over a fresh SoC and planner with
// the whole-plan cache sized to capacity (0 disables it).
func newPlanCacheScheduler(t *testing.T, cfg Config, capacity int) *Scheduler {
	t.Helper()
	opts := core.DefaultOptions()
	opts.PlanCache = capacity
	pl, err := core.NewPlanner(soc.Kirin990(), opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// canonicalRun serialises the Result's virtual-clock observables —
// completions, sojourns and window accounting — while excluding wall-clock
// fields (PlanWall) and the cache counters themselves, which legitimately
// differ between a cached and an uncached run. The planned stage rows and
// executed timelines are compared through the run's span-derived Chrome
// trace.
func canonicalRun(res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "makespan=%v windows=%d replans=%d retried=%d planretries=%d events=%d deadline=%d\n",
		res.Makespan, res.Windows, res.Replans, res.Retried, res.PlanRetries,
		res.EventsApplied, res.DeadlineMisses)
	fmt.Fprintf(&b, "completions=%v\nsojourns=%v\n", res.Completions, res.Sojourns)
	for i, ws := range res.WindowStats {
		fmt.Fprintf(&b, "w%d start=%v end=%v req=%d done=%d requeued=%d retries=%d events=%d interrupted=%t exec=%v\n",
			i, ws.Start, ws.End, ws.Requests, ws.Completed, ws.Requeued,
			ws.PlanRetries, ws.EventsApplied, ws.Interrupted, ws.ExecSpan)
	}
	return b.String()
}

// TestDifferentialStreamPlanCache: whole online runs — including randomized
// degradation event streams and a crafted mid-window interrupt — must be
// byte-identical with the plan cache on and off. The cache may only change
// planning wall time, never anything on the virtual clock.
func TestDifferentialStreamPlanCache(t *testing.T) {
	names := []string{
		model.ResNet50, model.SqueezeNet, model.GoogLeNet,
		model.ResNet50, model.SqueezeNet, model.GoogLeNet,
		model.ResNet50, model.SqueezeNet, model.GoogLeNet,
	}
	baseCfg := Config{MaxWindow: 3, MaxBatch: 1, MaxRetries: 6,
		RetryBackoff: 500 * time.Microsecond}

	// Learn the first window's span so one scenario can interrupt strictly
	// inside it.
	probe := newPlanCacheScheduler(t, baseCfg, 0)
	probeRes, err := probe.Run(burstRequests(t, names...), pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if probeRes.Windows < 3 {
		t.Fatalf("probe windows = %d, want ≥ 3", probeRes.Windows)
	}
	midWindow := probeRes.WindowStats[0].End / 2

	rng := rand.New(rand.NewSource(20260805))
	span := probeRes.Makespan
	randomEvents := func() []soc.Event {
		evs := make([]soc.Event, 2+rng.Intn(3))
		for i := range evs {
			at := time.Duration(rng.Int63n(int64(span)))
			switch rng.Intn(3) {
			case 0:
				evs[i] = soc.Event{Kind: soc.EventThermalThrottle, Processor: "cpu-big",
					At: at, Factor: 1 + 0.5*float64(rng.Intn(3))}
			case 1:
				evs[i] = soc.Event{Kind: soc.EventFrequencyScale, Processor: "gpu",
					At: at, Factor: 0.5 + 0.25*float64(rng.Intn(3))}
			case 2:
				evs[i] = soc.Event{Kind: soc.EventBandwidthSqueeze,
					At: at, Factor: 0.6 + 0.2*float64(rng.Intn(3))}
			}
		}
		return evs
	}

	scenarios := []struct {
		name   string
		events []soc.Event
	}{
		{"steady-state", nil},
		{"mid-window-offline", []soc.Event{
			{Kind: soc.EventProcessorOffline, Processor: "npu", At: midWindow},
			{Kind: soc.EventProcessorOnline, Processor: "npu", At: span},
		}},
		{"random-1", randomEvents()},
		{"random-2", randomEvents()},
		{"random-3", randomEvents()},
	}
	for _, sc := range scenarios {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			cfg := baseCfg
			cfg.Events = sc.events
			// Each run arms a span recorder: the Chrome trace rebuilt from
			// it carries every executed slice's layers, processor, timing
			// and interrupt status.
			run := func(capacity int) (*Result, []byte) {
				s := newPlanCacheScheduler(t, cfg, capacity)
				rec := obs.NewSpanRecorder(0)
				ctx := obs.ContextWithRecorder(context.Background(), rec)
				res, err := s.RunContext(ctx, burstRequests(t, names...), pipeline.DefaultOptions())
				if err != nil {
					t.Fatalf("plan cache %d: %v", capacity, err)
				}
				chrome, err := trace.StreamChromeFromSpans(rec.Spans())
				if err != nil {
					t.Fatalf("plan cache %d: %v", capacity, err)
				}
				return res, chrome
			}
			uncached, uncachedTrace := run(0)
			cached, cachedTrace := run(8)
			if got, want := canonicalRun(cached), canonicalRun(uncached); got != want {
				t.Errorf("cached run diverged from uncached:\n--- cached ---\n%s--- uncached ---\n%s", got, want)
			}
			if !bytes.Equal(cachedTrace, uncachedTrace) {
				t.Errorf("cached run's span trace diverged from uncached:\n--- cached ---\n%s\n--- uncached ---\n%s",
					cachedTrace, uncachedTrace)
			}
			if cached.PlanCacheHits+cached.PlanCacheMisses != uint64(cached.Windows) {
				t.Errorf("plan cache traffic %d+%d does not cover %d windows",
					cached.PlanCacheHits, cached.PlanCacheMisses, cached.Windows)
			}
			if uncached.PlanCacheHits != 0 || uncached.PlanCacheMisses != 0 {
				t.Errorf("uncached run reports plan-cache traffic %d/%d",
					uncached.PlanCacheHits, uncached.PlanCacheMisses)
			}
			if sc.events == nil && cached.PlanCacheHits == 0 {
				t.Error("steady-state run never hit the plan cache")
			}
			if sc.name == "mid-window-offline" && cached.Replans < 1 {
				t.Errorf("mid-window scenario never interrupted a window (replans=%d)", cached.Replans)
			}
			// The run report mirrors the Result's plan-cache counters.
			if r := cached.Report; r.Planner.PlanCacheHits != cached.PlanCacheHits ||
				r.Planner.PlanCacheMisses != cached.PlanCacheMisses {
				t.Errorf("report plan-cache counters %d/%d != result %d/%d",
					r.Planner.PlanCacheHits, r.Planner.PlanCacheMisses,
					cached.PlanCacheHits, cached.PlanCacheMisses)
			}
		})
	}
}

// TestStreamDegradationNoOpEventsKeepPlanCache is the regression test for
// the no-op invalidation fix: events that restate the SoC's current state
// (online for an in-service processor, a throttle at factor 1, the bus at
// full capacity) must not flush the cost cache or the plan cache — a warm
// stream stays all-hits through them. A genuinely state-changing event on
// the same setup must still force a miss (the control).
func TestStreamDegradationNoOpEventsKeepPlanCache(t *testing.T) {
	names := []string{
		model.ResNet50, model.SqueezeNet,
		model.ResNet50, model.SqueezeNet,
		model.ResNet50, model.SqueezeNet,
	}
	opts := core.DefaultOptions()
	opts.PlanCache = 8
	pl, err := core.NewPlanner(soc.Kirin990(), opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{MaxWindow: 2, MaxBatch: 1}
	warm, err := NewScheduler(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := warm.Run(burstRequests(t, names...), pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows != 3 || res.PlanCacheMisses != 1 || res.PlanCacheHits != 2 {
		t.Fatalf("warm run: windows=%d plan cache %d hits / %d misses, want 3 windows, 2/1",
			res.Windows, res.PlanCacheHits, res.PlanCacheMisses)
	}

	// Redundant events, all due before the first window plans: every one
	// restates the current state, so nothing may invalidate.
	noop := cfg
	noop.Events = []soc.Event{
		{Kind: soc.EventProcessorOnline, Processor: "npu"},
		{Kind: soc.EventThermalThrottle, Processor: "cpu-big", Factor: 1},
		{Kind: soc.EventFrequencyScale, Processor: "gpu", Factor: 1},
		{Kind: soc.EventBandwidthSqueeze, Factor: 1},
	}
	costHits0, costMisses0 := pl.CacheStats()
	planHits0, planMisses0 := pl.PlanCacheStats()
	s2, err := NewScheduler(pl, noop)
	if err != nil {
		t.Fatal(err)
	}
	res, err = s2.Run(burstRequests(t, names...), pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.EventsApplied != len(noop.Events) {
		t.Errorf("EventsApplied = %d, want %d (no-op events are still consumed)",
			res.EventsApplied, len(noop.Events))
	}
	if _, costMisses := pl.CacheStats(); costMisses != costMisses0 {
		t.Errorf("no-op events caused %d cost-cache misses", costMisses-costMisses0)
	}
	if costHits, _ := pl.CacheStats(); costHits == costHits0 {
		t.Error("second run did not exercise the cost cache at all")
	}
	planHits, planMisses := pl.PlanCacheStats()
	if planMisses != planMisses0 {
		t.Errorf("no-op events caused %d plan-cache misses (every window should hit)", planMisses-planMisses0)
	}
	if planHits != planHits0+uint64(res.Windows) {
		t.Errorf("plan-cache hits %d → %d across %d windows, want all-hits",
			planHits0, planHits, res.Windows)
	}

	// Control: a real throttle on the same planner must force a replan.
	real := cfg
	real.Events = []soc.Event{{Kind: soc.EventThermalThrottle, Processor: "cpu-big", Factor: 1.5}}
	_, planMisses1 := pl.PlanCacheStats()
	s3, err := NewScheduler(pl, real)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s3.Run(burstRequests(t, names...), pipeline.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if _, planMisses2 := pl.PlanCacheStats(); planMisses2 == planMisses1 {
		t.Error("state-changing throttle caused no plan-cache miss — the no-op detection is too eager")
	}
}
