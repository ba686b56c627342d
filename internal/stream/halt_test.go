package stream

import (
	"slices"
	"testing"
	"time"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stats"
)

// kirinOffline returns events taking every Kirin 990 processor offline at
// the given virtual instant.
func kirinOffline(at time.Duration) []soc.Event {
	events := make([]soc.Event, 0, 4)
	for _, p := range []string{"npu", "cpu-big", "gpu", "cpu-small"} {
		events = append(events, soc.Event{Kind: soc.EventProcessorOffline, Processor: p, At: at})
	}
	return events
}

// haltConfig is a fast-failing scheduler configuration with the graceful
// halt switch in the given position.
func haltConfig(halt bool, events []soc.Event) Config {
	return Config{
		MaxWindow:      3,
		MaxBatch:       1,
		MaxRetries:     2,
		RetryBackoff:   100 * time.Microsecond,
		Events:         events,
		HaltInfeasible: halt,
	}
}

// spreadRequests builds requests over names with a fixed arrival gap so some
// arrive only after the halt instant.
func spreadRequests(t *testing.T, names []string, gap time.Duration) []Request {
	t.Helper()
	reqs := make([]Request, len(names))
	for i, n := range names {
		reqs[i] = Request{Model: model.MustByName(n), Arrival: time.Duration(i) * gap}
	}
	return reqs
}

// TestStreamHaltInfeasible: with every processor offline past the plan-retry
// budget, Config.HaltInfeasible must convert the hard error into a partial
// Result that accounts for every request exactly once — completed before the
// halt or listed in Unfinished — while the same run without the switch still
// fails loudly.
func TestStreamHaltInfeasible(t *testing.T) {
	names := []string{
		model.ResNet50, model.SqueezeNet, model.GoogLeNet, model.MobileNetV2,
		model.ResNet50, model.SqueezeNet, model.GoogLeNet, model.MobileNetV2,
	}
	events := kirinOffline(2 * time.Millisecond)

	// Without the switch: a hard error (the pre-existing contract).
	hard := newPlanCacheScheduler(t, haltConfig(false, events), 0)
	if _, err := hard.RunContext(t.Context(), spreadRequests(t, names, time.Millisecond), pipeline.DefaultOptions()); err == nil {
		t.Fatal("run with every processor offline returned nil error without HaltInfeasible")
	}

	soft := newPlanCacheScheduler(t, haltConfig(true, events), 0)
	res, err := soft.RunContext(t.Context(), spreadRequests(t, names, time.Millisecond), pipeline.DefaultOptions())
	if err != nil {
		t.Fatalf("HaltInfeasible run: %v", err)
	}
	if !res.Halted {
		t.Fatal("result not marked Halted")
	}
	if res.HaltedAt <= 0 {
		t.Errorf("HaltedAt = %v, want > 0", res.HaltedAt)
	}
	if len(res.Unfinished) == 0 {
		t.Fatal("halted run reports no unfinished requests")
	}
	unfin := make(map[int]bool, len(res.Unfinished))
	for _, i := range res.Unfinished {
		if i < 0 || i >= len(names) {
			t.Fatalf("unfinished index %d out of range", i)
		}
		if unfin[i] {
			t.Fatalf("unfinished index %d listed twice", i)
		}
		unfin[i] = true
	}
	completed := 0
	for i := range names {
		if unfin[i] {
			if res.Completions[i] != 0 || res.Sojourns[i] != 0 {
				t.Errorf("unfinished request %d has completion %v / sojourn %v",
					i, res.Completions[i], res.Sojourns[i])
			}
			continue
		}
		completed++
		if res.Completions[i] <= 0 {
			t.Errorf("request %d neither completed nor listed unfinished", i)
		}
	}
	if completed+len(res.Unfinished) != len(names) {
		t.Errorf("accounting: %d completed + %d unfinished != %d requests",
			completed, len(res.Unfinished), len(names))
	}
	if res.PlanRetries == 0 {
		t.Error("halted run consumed no plan retries")
	}
	// Every recorded window either completed work or was an interrupted
	// window whose requests were requeued; the aborted final window (planning
	// exhausted) must not be appended at all.
	for i, ws := range res.WindowStats {
		if ws.Completed == 0 && !ws.Interrupted {
			t.Errorf("window %d recorded with zero completions and no interrupt — aborted window leaked into WindowStats", i)
		}
	}

	rep := res.Report
	if rep == nil {
		t.Fatal("halted run has no report")
	}
	if !rep.Stream.Halted {
		t.Error("report not marked halted")
	}
	if rep.Stream.Unfinished != len(res.Unfinished) {
		t.Errorf("report unfinished = %d, want %d", rep.Stream.Unfinished, len(res.Unfinished))
	}
	if rep.Completed != completed {
		t.Errorf("report completed = %d, want %d", rep.Completed, completed)
	}
}

// TestStreamHandoffAccounting: completed requests carrying Request.Handoff
// must be counted per window, on the Result, in the report and on the
// stream_handoffs_total counter — and nowhere else.
func TestStreamHandoffAccounting(t *testing.T) {
	reg := obs.NewRegistry("h2pipe")
	cfg := haltConfig(false, nil)
	cfg.Metrics = reg
	opts := core.DefaultOptions()
	pl, err := core.NewPlanner(soc.Kirin990(), opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	names := []string{
		model.ResNet50, model.SqueezeNet, model.GoogLeNet,
		model.MobileNetV2, model.ResNet50, model.SqueezeNet,
	}
	reqs := spreadRequests(t, names, 500*time.Microsecond)
	want := 0
	for i := range reqs {
		if i%2 == 1 {
			reqs[i].Handoff = true
			want++
		}
	}
	res, err := s.RunContext(t.Context(), reqs, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkAllComplete(t, reqs, res)
	if res.Handoffs != want {
		t.Errorf("result handoffs = %d, want %d", res.Handoffs, want)
	}
	sum := 0
	for _, ws := range res.WindowStats {
		sum += ws.Handoffs
	}
	if sum != want {
		t.Errorf("window handoffs sum to %d, want %d", sum, want)
	}
	if res.Report.Stream.Handoffs != want {
		t.Errorf("report handoffs = %d, want %d", res.Report.Stream.Handoffs, want)
	}
	if got := reg.Snapshot().Counters["stream_handoffs_total"]; got != uint64(want) {
		t.Errorf("stream_handoffs_total = %d, want %d", got, want)
	}

	// A plain run must not count any.
	pl2, err := core.NewPlanner(soc.Kirin990(), opts)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewScheduler(pl2, haltConfig(false, nil))
	if err != nil {
		t.Fatal(err)
	}
	res2, err := s2.RunContext(t.Context(), spreadRequests(t, names, 500*time.Microsecond), pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res2.Handoffs != 0 || res2.Report.Stream.Handoffs != 0 {
		t.Errorf("plain run counted %d handoffs (report %d)", res2.Handoffs, res2.Report.Stream.Handoffs)
	}
}

// TestStreamHaltSojournStatsCompletedOnly: a halted run's sojourn figures —
// MeanSojourn, SojournQuantile, P95Sojourn and the report's mean, p50, p95
// and p99 — cover only the requests it completed. Its Unfinished requests
// keep zero sojourn slots, which must not pull the figures down.
func TestStreamHaltSojournStatsCompletedOnly(t *testing.T) {
	names := []string{
		model.ResNet50, model.SqueezeNet, model.GoogLeNet, model.MobileNetV2,
		model.ResNet50, model.SqueezeNet, model.GoogLeNet, model.MobileNetV2,
	}
	sched := newPlanCacheScheduler(t, haltConfig(true, kirinOffline(150*time.Millisecond)), 0)
	res, err := sched.RunContext(t.Context(), spreadRequests(t, names, 25*time.Millisecond), pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted || len(res.Unfinished) == 0 || len(res.Unfinished) == len(res.Sojourns) {
		t.Fatalf("want a halted run with some requests completed and some not; halted=%v unfinished=%v", res.Halted, res.Unfinished)
	}
	unfinished := make(map[int]bool, len(res.Unfinished))
	for _, i := range res.Unfinished {
		unfinished[i] = true
	}
	var completed []time.Duration
	var sum time.Duration
	for i, s := range res.Sojourns {
		if !unfinished[i] {
			completed = append(completed, s)
			sum += s
		}
	}
	slices.Sort(completed)
	mean := sum / time.Duration(len(completed))
	if got := res.MeanSojourn(); got != mean {
		t.Errorf("MeanSojourn = %v, want %v over the %d completed requests", got, mean, len(completed))
	}
	for _, p := range []int{0, 50, 95, 99, 100} {
		if got, want := res.SojournQuantile(p), stats.NearestRank(completed, p); got != want {
			t.Errorf("SojournQuantile(%d) = %v, want %v", p, got, want)
		}
	}
	if got, want := res.P95Sojourn(), stats.NearestRank(completed, 95); got != want {
		t.Errorf("P95Sojourn = %v, want %v", got, want)
	}
	rep := res.Report
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"mean", rep.MeanSojournMS, durMS(mean)},
		{"p50", rep.P50SojournMS, durMS(stats.NearestRank(completed, 50))},
		{"p95", rep.P95SojournMS, durMS(stats.NearestRank(completed, 95))},
		{"p99", rep.P99SojournMS, durMS(stats.NearestRank(completed, 99))},
	} {
		if c.got != c.want {
			t.Errorf("report %s sojourn = %v ms, want %v ms", c.name, c.got, c.want)
		}
	}
}

// TestStreamHaltReportDPCells: the run report's DP-cell total is the run's,
// a halted window's attempts included, so it equals what the planner
// published. Kirin 990 with every processor offline at 30 ms and the halt
// suite's eight requests 12 ms apart: the halted window's attempts evaluate
// 404 of the run's 1,320 cells, which a total summed over the executed
// windows' stats (916) misses.
func TestStreamHaltReportDPCells(t *testing.T) {
	reg := obs.NewRegistry("h2p")
	opts := core.DefaultOptions()
	opts.Metrics = reg
	pl, err := core.NewPlanner(soc.Kirin990(), opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(pl, haltConfig(true, kirinOffline(30*time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	names := []string{
		model.ResNet50, model.SqueezeNet, model.GoogLeNet, model.MobileNetV2,
		model.ResNet50, model.SqueezeNet, model.GoogLeNet, model.MobileNetV2,
	}
	res, err := s.RunContext(t.Context(), spreadRequests(t, names, 12*time.Millisecond), pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Halted {
		t.Fatal("the run did not halt")
	}
	published := reg.Counter("planner_dp_cells_total").Value()
	if res.DPCells != 1320 || res.Report.Planner.DPCells != res.DPCells || published != res.DPCells {
		t.Errorf("DP cells: Result %d, report %d, planner_dp_cells_total %d; want 1320 in all three",
			res.DPCells, res.Report.Planner.DPCells, published)
	}
	var windows uint64
	for _, ws := range res.WindowStats {
		windows += ws.DPCells
	}
	if windows != 916 {
		t.Errorf("the executed windows' stats hold %d DP cells, want 916 (the halted window's 404 are the run's alone)", windows)
	}
}
