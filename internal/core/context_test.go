package core

import (
	"context"
	"errors"
	"testing"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// TestPlanContextCancelled: a pre-cancelled context aborts every planning
// entry point with an error wrapping context.Canceled.
func TestPlanContextCancelled(t *testing.T) {
	pl, err := NewPlanner(soc.Kirin990(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	models := mustModels(t, model.ResNet50, model.SqueezeNet)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, maxBatch := range []int{1, 4} {
		if _, _, _, err := pl.PlanModels(ctx, models, maxBatch); !errors.Is(err, context.Canceled) {
			t.Errorf("PlanModels(maxBatch %d) error %v does not wrap context.Canceled", maxBatch, err)
		}
		if _, _, _, err := pl.PlanFrontierModels(ctx, models, maxBatch); !errors.Is(err, context.Canceled) {
			t.Errorf("PlanFrontierModels(maxBatch %d) error %v does not wrap context.Canceled", maxBatch, err)
		}
	}
	p, err := pl.Profile(models[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := PartitionContext(ctx, p); !errors.Is(err, context.Canceled) {
		t.Errorf("PartitionContext error %v does not wrap context.Canceled", err)
	}
	if _, _, err := pl.PlanProfiles(ctx, []*profile.Profile{p}); !errors.Is(err, context.Canceled) {
		t.Errorf("PlanProfiles error %v does not wrap context.Canceled", err)
	}
	if _, _, err := pl.PlanFrontierProfiles(ctx, []*profile.Profile{p}); !errors.Is(err, context.Canceled) {
		t.Errorf("PlanFrontierProfiles error %v does not wrap context.Canceled", err)
	}
}
