package core

import (
	"context"
	"testing"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/workload"
)

func TestCoalesceLightGroupsFrames(t *testing.T) {
	s := soc.Kirin990()
	names := workload.VideoAnalytics(8) // BERT + 8 alternating light frames
	requests, err := workload.Instantiate(names)
	if err != nil {
		t.Fatal(err)
	}
	groups := mustPlanner(t, s, DefaultOptions()).coalesceLight(requests, 64)
	if len(groups) >= len(requests) {
		t.Fatalf("coalescing produced %d groups for %d requests", len(groups), len(requests))
	}
	// Every original request appears exactly once.
	seen := make(map[int]bool)
	for _, g := range groups {
		for _, idx := range g.Requests {
			if seen[idx] {
				t.Fatalf("request %d in multiple groups", idx)
			}
			seen[idx] = true
		}
	}
	if len(seen) != len(requests) {
		t.Fatalf("groups cover %d of %d requests", len(seen), len(requests))
	}
	// The heavy anchor stays solo; light groups carry batched models.
	foundBatch := false
	for _, g := range groups {
		if g.Model.Name == model.BERT && len(g.Requests) != 1 {
			t.Error("heavy request was batched")
		}
		if len(g.Requests) > 1 {
			foundBatch = true
			if g.Model.TotalFLOPs() <= requests[g.Requests[0]].TotalFLOPs() {
				t.Error("batched model does not scale FLOPs")
			}
		}
	}
	if !foundBatch {
		t.Error("no light requests were batched")
	}
}

func TestCoalesceLightEdges(t *testing.T) {
	pl := mustPlanner(t, soc.Kirin990(), DefaultOptions())
	if got := pl.coalesceLight(nil, 8); got != nil {
		t.Errorf("empty input groups = %v", got)
	}
	// All-heavy input passes through one-to-one.
	requests := modelsOf(model.BERT, model.ViT)
	groups := pl.coalesceLight(requests, 8)
	if len(groups) != 2 {
		t.Fatalf("all-heavy input produced %d groups", len(groups))
	}
	// maxBatch 1 disables batching entirely.
	light, err := workload.Instantiate(workload.VideoAnalytics(6))
	if err != nil {
		t.Fatal(err)
	}
	groups = pl.coalesceLight(light, 1)
	for _, g := range groups {
		if len(g.Requests) != 1 {
			t.Errorf("maxBatch=1 produced a batch of %d", len(g.Requests))
		}
	}
}

// TestPlanBatchedImprovesThroughput reproduces the Appendix-D claim:
// batching lightweight streams improves end-to-end frame throughput.
func TestPlanBatchedImprovesThroughput(t *testing.T) {
	s := soc.Kirin990()
	names := workload.VideoAnalytics(16)
	requests, err := workload.Instantiate(names)
	if err != nil {
		t.Fatal(err)
	}
	pl := mustPlanner(t, s, DefaultOptions())

	plain, _, _, err := pl.PlanModels(context.Background(), requests, 1)
	if err != nil {
		t.Fatal(err)
	}
	plainRes, err := pipeline.ExecuteContext(t.Context(), plain.Schedule, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	batched, groups, _, err := pl.PlanModels(context.Background(), requests, 64)
	if err != nil {
		t.Fatal(err)
	}
	batchedRes, err := pipeline.ExecuteContext(t.Context(), batched.Schedule, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Frame throughput counts original requests, not groups.
	frames := 0
	for _, g := range groups {
		frames += len(g.Requests)
	}
	if frames != len(requests) {
		t.Fatalf("groups cover %d of %d frames", frames, len(requests))
	}
	// Batching must not hurt end-to-end latency (the heavy anchor
	// dominates the makespan either way)...
	if batchedRes.Makespan.Seconds() > plainRes.Makespan.Seconds()*1.05 {
		t.Errorf("batched makespan %v above unbatched %v", batchedRes.Makespan, plainRes.Makespan)
	}
	// ...and must reduce the total processor busy time: per-frame kernel
	// launches, weight loads and boundary copies amortise across each
	// batch (the Appendix-D mechanism).
	busy := func(res *pipeline.Result) float64 {
		var sum float64
		for _, e := range res.Timeline {
			sum += (e.End - e.Start).Seconds()
		}
		return sum
	}
	if b, p := busy(batchedRes), busy(plainRes); b >= p {
		t.Errorf("batched busy time %.1fms not below unbatched %.1fms", b*1e3, p*1e3)
	}
	// Ordered groups parallel the plan's positions.
	if len(groups) != batched.Schedule.NumRequests() {
		t.Errorf("%d groups for %d scheduled requests", len(groups), batched.Schedule.NumRequests())
	}
	for pos := range groups {
		if groups[pos].Model.Name != batched.Schedule.Profiles[pos].Model().Name {
			t.Errorf("group %d (%s) misaligned with schedule (%s)",
				pos, groups[pos].Model.Name, batched.Schedule.Profiles[pos].Model().Name)
		}
	}
}
