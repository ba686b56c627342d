package hetero2pipe_test

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"

	"hetero2pipe"

	"hetero2pipe/internal/model"
)

// TestObsFacadeWithMetrics: one WithMetrics registry feeds all three layers
// through both the offline and the streaming entry points, and exports in
// Prometheus text format.
func TestObsFacadeWithMetrics(t *testing.T) {
	reg := hetero2pipe.NewMetricsRegistry("h2pipe")
	sys, err := hetero2pipe.NewSystem("Kirin990", hetero2pipe.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunContext(t.Context(), "ResNet50", "SqueezeNet"); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["planner_plans_total"] == 0 {
		t.Error("offline run recorded no plans")
	}
	if snap.Counters["executor_slices_total"] == 0 {
		t.Error("offline run recorded no executor slices")
	}

	res, err := sys.RunStreamContext(t.Context(), burst(t, model.ResNet50, model.SqueezeNet, model.GoogLeNet),
		hetero2pipe.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil {
		t.Fatal("stream result carries no run report")
	}
	snap = reg.Snapshot()
	if got := snap.Counters["stream_windows_total"]; got != uint64(res.Windows) {
		t.Errorf("stream_windows_total = %d, want %d", got, res.Windows)
	}
	if snap.Histograms["stream_sojourn_seconds"].Count != 3 {
		t.Errorf("sojourn observations = %d, want 3",
			snap.Histograms["stream_sojourn_seconds"].Count)
	}

	var sb strings.Builder
	if err := hetero2pipe.WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE", "h2pipe_planner_plans_total", "h2pipe_stream_windows_total"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}
}

// TestObsFacadeStreamTrace: a stream run traced through WithSpans renders
// via StreamChromeTraceFromSpans.
func TestObsFacadeStreamTrace(t *testing.T) {
	rec := hetero2pipe.NewSpanRecorder(0)
	sys, err := hetero2pipe.NewSystem("Kirin990", hetero2pipe.WithSpans(rec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunStreamContext(t.Context(), burst(t, model.ResNet50, model.SqueezeNet), hetero2pipe.DefaultStreamConfig()); err != nil {
		t.Fatal(err)
	}
	raw, err := hetero2pipe.StreamChromeTraceFromSpans(rec)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	if len(events) == 0 {
		t.Error("trace is empty")
	}

	// A recorder that holds no stream run — only an offline run's spans —
	// has nothing to render.
	offline := hetero2pipe.NewSpanRecorder(0)
	sys2, err := hetero2pipe.NewSystem("Kirin990", hetero2pipe.WithSpans(offline))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys2.RunContext(t.Context(), "SqueezeNet"); err != nil {
		t.Fatal(err)
	}
	if len(offline.Spans()) == 0 {
		t.Fatal("offline run recorded no spans")
	}
	if _, err := hetero2pipe.StreamChromeTraceFromSpans(offline); err == nil {
		t.Error("StreamChromeTraceFromSpans accepted a recorder holding no stream run")
	}
}

// TestObsConcurrentStreamsOwnTheirPlanning: two stream runs on one System
// share its planner, plan cache included, with disjoint model sets and no
// events. Each reports exactly the planning of its own windows — what a
// solo run of the same stream reports, on the Result, on every WindowStat
// and in the run report's Planner section — because a window adds up its
// own planning calls' accounts, and the shared planner keeps no totals to
// diff.
func TestObsConcurrentStreamsOwnTheirPlanning(t *testing.T) {
	cycle := func(gap time.Duration, names ...string) []hetero2pipe.StreamRequest {
		models := make([]*model.Model, 40)
		for i := range models {
			models[i] = model.MustByName(names[i%len(names)])
		}
		return hetero2pipe.FleetPoissonArrivals(models, gap, 7, 1)
	}
	streams := [][]hetero2pipe.StreamRequest{
		cycle(20*time.Millisecond, model.ResNet50, model.VGG16, model.BERT),
		cycle(15*time.Millisecond, model.SqueezeNet, model.GoogLeNet, model.MobileNetV2, model.ViT),
	}
	newSystem := func() *hetero2pipe.System {
		sys, err := hetero2pipe.NewSystem("Kirin990", hetero2pipe.WithPlanCache(64))
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	solo := make([]*hetero2pipe.StreamResult, len(streams))
	for i, reqs := range streams {
		res, err := newSystem().RunStreamContext(t.Context(), reqs, hetero2pipe.StreamConfig{})
		if err != nil {
			t.Fatal(err)
		}
		solo[i] = res
	}
	shared := newSystem()
	got := make([]*hetero2pipe.StreamResult, len(streams))
	errs := make([]error, len(streams))
	var wg sync.WaitGroup
	for i, reqs := range streams {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = shared.RunStreamContext(t.Context(), reqs, hetero2pipe.StreamConfig{})
		}()
	}
	wg.Wait()
	for i, want := range solo {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		g := got[i]
		if g.CacheHits != want.CacheHits || g.CacheMisses != want.CacheMisses ||
			g.PlanCacheHits != want.PlanCacheHits || g.PlanCacheMisses != want.PlanCacheMisses ||
			g.IncrementalReuse != want.IncrementalReuse {
			t.Errorf("stream %d: shared run reads cost cache %d/%d, plan cache %d/%d, reuse %d; solo %d/%d, %d/%d, %d",
				i, g.CacheHits, g.CacheMisses, g.PlanCacheHits, g.PlanCacheMisses, g.IncrementalReuse,
				want.CacheHits, want.CacheMisses, want.PlanCacheHits, want.PlanCacheMisses, want.IncrementalReuse)
		}
		if len(g.WindowStats) != len(want.WindowStats) {
			t.Fatalf("stream %d: shared run planned %d windows, solo %d", i, len(g.WindowStats), len(want.WindowStats))
		}
		for w := range want.WindowStats {
			if g.WindowStats[w].Account != want.WindowStats[w].Account {
				t.Errorf("stream %d window %d: shared run's planner fields %+v, solo %+v",
					i, w, g.WindowStats[w].Account, want.WindowStats[w].Account)
			}
		}
		gp, wp := g.Report.Planner, want.Report.Planner
		gp.PlanWallMS, wp.PlanWallMS = 0, 0 // wall clock
		if gp != wp {
			t.Errorf("stream %d: shared run's report Planner section %+v, solo %+v", i, gp, wp)
		}
	}
}
