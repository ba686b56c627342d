package stream

import (
	"testing"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
)

// TestDegradationIncrementalReuse pins the observability plumbing for the
// incremental-replanning tentpole: a warm planner hit by a single-processor
// throttle must reuse memoized partition prefixes on the replan, and that
// reuse must surface on the Result, in the per-window stats, and in the
// structured report.
func TestDegradationIncrementalReuse(t *testing.T) {
	pl, err := core.NewPlanner(soc.Kirin990(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	names := []string{model.ResNet50, model.SqueezeNet, model.GoogLeNet}

	// Cold run: fills the cost-cache entries' DP rows; nothing to reuse yet.
	cold, err := NewScheduler(pl, Config{MaxWindow: 8, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cold.RunContext(t.Context(), burstRequests(t, names...), pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.IncrementalReuse != 0 {
		t.Fatalf("cold run reports %d incremental reuses, want 0", res.IncrementalReuse)
	}

	// Warm run with a pre-burst gpu throttle: the SoC state moves, but every
	// model's partition resumes from its memoized prefix instead of
	// replanning from scratch.
	cfg := Config{MaxWindow: 8, MaxBatch: 1}
	cfg.Events = []soc.Event{{Kind: soc.EventThermalThrottle, Processor: "gpu", Factor: 2}}
	warm, err := NewScheduler(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err = warm.RunContext(t.Context(), burstRequests(t, names...), pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.IncrementalReuse == 0 {
		t.Error("post-throttle run reports no incremental reuse")
	}
	var winSum uint64
	for _, ws := range res.WindowStats {
		winSum += ws.IncrementalReuse
	}
	if winSum != res.IncrementalReuse {
		t.Errorf("window-stat reuse sum %d != result total %d", winSum, res.IncrementalReuse)
	}
	rep := res.Report
	if rep == nil {
		t.Fatal("Result.Report not populated")
	}
	if rep.Planner.IncrementalReuse != res.IncrementalReuse {
		t.Errorf("report planner reuse %d != result %d", rep.Planner.IncrementalReuse, res.IncrementalReuse)
	}
	var repSum uint64
	for _, w := range rep.Windows {
		repSum += w.IncrementalReuse
	}
	if repSum != res.IncrementalReuse {
		t.Errorf("report window reuse sum %d != result %d", repSum, res.IncrementalReuse)
	}
}
