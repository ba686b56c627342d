package core

import (
	"context"
	"testing"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/soc"
)

// TestPlanDeterminismGolden hammers one fixed window 20× at parallelism 8
// and requires every serialized plan to be byte-identical — the test that
// catches map-iteration order, channel-completion order, or any other
// scheduler-dependent nondeterminism leaking into the merge. The planner is
// reused across runs, so warm cost-cache plans must also match the cold
// first plan.
func TestPlanDeterminismGolden(t *testing.T) {
	s := soc.Kirin990()
	models := mustModels(t,
		model.YOLOv4, model.SqueezeNet, model.BERT,
		model.ResNet50, model.MobileNetV2, model.GoogLeNet)

	opts := DefaultOptions()
	opts.Parallelism = 8
	pl, err := NewPlanner(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	var golden string
	for run := 0; run < 20; run++ {
		plan, _, _, err := pl.PlanModels(context.Background(), models, 1)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		got := canonicalPlan(plan)
		if run == 0 {
			golden = got
			continue
		}
		if got != golden {
			t.Fatalf("run %d produced a different plan at parallelism 8:\n--- run 0 ---\n%s--- run %d ---\n%s",
				run, golden, run, got)
		}
	}

	// A fresh planner (cold cache) must reproduce the same golden plan.
	pl2, err := NewPlanner(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan, _, _, err := pl2.PlanModels(context.Background(), models, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalPlan(plan); got != golden {
		t.Fatalf("cold-cache planner diverged from warm-cache golden plan:\n--- warm ---\n%s--- cold ---\n%s", golden, got)
	}
}
