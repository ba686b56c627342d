package stream

import (
	"context"
	"encoding/json"
	"testing"
	"time"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
)

// degradedScenario returns a config whose run exercises every report
// figure: an NPU-offline event interrupts the first window (replan +
// requeues), and tight deadlines on the burst produce misses.
func degradedScenario(t *testing.T) (Config, []Request) {
	t.Helper()
	names := []string{
		model.ResNet50, model.GoogLeNet, model.BERT,
		model.ResNet50, model.GoogLeNet, model.BERT,
	}
	base := newScheduler(t, DefaultConfig())
	baseRes, err := base.RunContext(t.Context(), burstRequests(t, names...), pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Events = []soc.Event{
		{Kind: soc.EventProcessorOffline, Processor: "npu", At: baseRes.WindowStats[0].End / 3},
	}
	reqs := burstRequests(t, names...)
	for i := range reqs {
		reqs[i].Deadline = time.Microsecond // degraded run is sure to miss
	}
	return cfg, reqs
}

// TestObsRunReportMatchesResult is the acceptance-criterion test: the
// structured run report's planner cache hit/miss, window, replan and
// deadline-miss figures must exactly equal the corresponding Result
// fields, and the registry counters must agree with both.
func TestObsRunReportMatchesResult(t *testing.T) {
	cfg, reqs := degradedScenario(t)
	reg := obs.NewRegistry("h2pipe")
	cfg.Metrics = reg
	plOpts := core.DefaultOptions()
	plOpts.Metrics = reg // the facade's WithMetrics wires both layers to one registry
	pl, err := core.NewPlanner(soc.Kirin990(), plOpts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.RunContext(t.Context(), reqs, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep == nil {
		t.Fatal("Result.Report not populated")
	}
	if rep.Planner.CacheHits != res.CacheHits || rep.Planner.CacheMisses != res.CacheMisses {
		t.Errorf("report cache %d/%d != result %d/%d",
			rep.Planner.CacheHits, rep.Planner.CacheMisses, res.CacheHits, res.CacheMisses)
	}
	if rep.Stream.Windows != res.Windows {
		t.Errorf("report windows %d != result %d", rep.Stream.Windows, res.Windows)
	}
	if rep.Stream.Replans != res.Replans {
		t.Errorf("report replans %d != result %d", rep.Stream.Replans, res.Replans)
	}
	if rep.Stream.Requeues != res.Retried {
		t.Errorf("report requeues %d != result %d", rep.Stream.Requeues, res.Retried)
	}
	if rep.Stream.DeadlineMisses != res.DeadlineMisses {
		t.Errorf("report deadline misses %d != result %d", rep.Stream.DeadlineMisses, res.DeadlineMisses)
	}
	if rep.Stream.EventsApplied != res.EventsApplied {
		t.Errorf("report events %d != result %d", rep.Stream.EventsApplied, res.EventsApplied)
	}
	if rep.Stream.PlanRetries != res.PlanRetries {
		t.Errorf("report plan retries %d != result %d", rep.Stream.PlanRetries, res.PlanRetries)
	}
	if rep.Requests != len(reqs) || rep.Completed != len(res.Completions) {
		t.Errorf("report requests/completed %d/%d != %d/%d",
			rep.Requests, rep.Completed, len(reqs), len(res.Completions))
	}
	if rep.SoC != "Kirin990" {
		t.Errorf("report SoC = %q", rep.SoC)
	}
	if len(rep.Windows) != res.Windows {
		t.Errorf("report has %d window rows, want %d", len(rep.Windows), res.Windows)
	}
	var cells uint64
	for i, wr := range rep.Windows {
		ws := res.WindowStats[i]
		if wr.Requests != ws.Requests || wr.Completed != ws.Completed ||
			wr.Requeued != ws.Requeued || wr.Interrupted != ws.Interrupted ||
			wr.CacheHits != ws.CacheHits || wr.CacheMisses != ws.CacheMisses ||
			wr.DPCells != ws.DPCells {
			t.Errorf("window row %d diverges from WindowStats: %+v vs %+v", i, wr, ws)
		}
		cells += ws.DPCells
	}
	if rep.Planner.DPCells != cells {
		t.Errorf("report DP cells %d != window sum %d", rep.Planner.DPCells, cells)
	}
	if rep.Planner.DPCells == 0 {
		t.Error("no DP cells counted across a multi-window run")
	}
	if rep.Executor.Slices == 0 {
		t.Error("no executor slices aggregated")
	}
	if rep.MakespanMS <= 0 || rep.MakespanMS != float64(res.Makespan)/1e6 {
		t.Errorf("MakespanMS = %v, want %v", rep.MakespanMS, float64(res.Makespan)/1e6)
	}

	// Registry counters must agree with the Result too.
	snap := reg.Snapshot()
	for name, want := range map[string]uint64{
		"stream_windows_total":         uint64(res.Windows),
		"stream_replans_total":         uint64(res.Replans),
		"stream_requeues_total":        uint64(res.Retried),
		"stream_plan_retries_total":    uint64(res.PlanRetries),
		"stream_deadline_misses_total": uint64(res.DeadlineMisses),
		"stream_events_applied_total":  uint64(res.EventsApplied),
		"planner_cache_hits_total":     res.CacheHits,
		"planner_cache_misses_total":   res.CacheMisses,
	} {
		if got := snap.Counters[name]; got != want {
			t.Errorf("registry %s = %d, want %d", name, got, want)
		}
	}
	// One observation per recorded completion; requeued executions are
	// discarded before recording, so the count is exactly the request count.
	if got := snap.Histograms["stream_sojourn_seconds"].Count; got != uint64(len(reqs)) {
		t.Errorf("sojourn observations = %d, want %d", got, len(reqs))
	}
	if snap.Histograms["stream_window_plan_seconds"].Count != uint64(res.Windows) {
		t.Errorf("plan-latency observations = %d, want %d",
			snap.Histograms["stream_window_plan_seconds"].Count, res.Windows)
	}
	// The report must serialise cleanly.
	raw, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var back obs.RunReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Stream.Windows != res.Windows {
		t.Errorf("JSON round-trip windows = %d, want %d", back.Stream.Windows, res.Windows)
	}
}

// TestObsWindowSpans: a traced run records one window span per executed
// window whose index, start, interrupted flag and interrupt instant agree
// with the Result's WindowStats — the attributes the span-sourced Chrome
// trace is rebuilt from.
func TestObsWindowSpans(t *testing.T) {
	cfg, reqs := degradedScenario(t)
	pl, err := core.NewPlanner(soc.Kirin990(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewSpanRecorder(0)
	res, err := s.RunContext(obs.ContextWithRecorder(context.Background(), rec), reqs, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	var windows []obs.SpanData
	for _, sp := range rec.Spans() {
		if sp.Name == "window" {
			windows = append(windows, sp)
		}
	}
	if len(windows) != res.Windows {
		t.Fatalf("window spans = %d, want one per window (%d)", len(windows), res.Windows)
	}
	attr := func(sp obs.SpanData, key string) int64 {
		a, ok := sp.Attr(key)
		if !ok {
			t.Fatalf("window span %d lacks %s", sp.ID, key)
		}
		return a.AsInt()
	}
	interrupted := 0
	for i, sp := range windows {
		if got := attr(sp, "window"); got != int64(i) {
			t.Errorf("span %d has window index %d", i, got)
		}
		ws := res.WindowStats[i]
		if got := time.Duration(attr(sp, "vt_start")); got != ws.Start {
			t.Errorf("span %d start %v != window stat start %v", i, got, ws.Start)
		}
		if got := attr(sp, "interrupted") != 0; got != ws.Interrupted {
			t.Errorf("span %d interrupted %v != window stat %v", i, got, ws.Interrupted)
		}
		if ws.Interrupted {
			interrupted++
			if got := time.Duration(attr(sp, "interrupt_at")); got != ws.End {
				t.Errorf("span %d interrupt at %v != window end %v", i, got, ws.End)
			}
		}
	}
	if interrupted == 0 {
		t.Error("scenario produced no interrupted window span")
	}
}
