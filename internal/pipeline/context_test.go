package pipeline

import (
	"context"
	"errors"
	"testing"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// TestExecuteContextCancelled: a cancelled context aborts the executor at
// the next virtual-clock advance with an error wrapping context.Canceled; a
// live context runs the schedule to completion.
func TestExecuteContextCancelled(t *testing.T) {
	s := soc.Kirin990()
	p, err := profile.New(s, model.MustByName(model.ResNet50))
	if err != nil {
		t.Fatal(err)
	}
	sched, err := FromCuts(s, []*profile.Profile{p}, []Cuts{SingleProcessor(p.NumLayers(), 1, s.NumProcessors())})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExecuteContext(ctx, sched, DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Errorf("ExecuteContext error %v does not wrap context.Canceled", err)
	}
	live, err := ExecuteContext(t.Context(), sched, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Completions) != 1 || live.Makespan <= 0 {
		t.Errorf("live execution did not complete: %d completions, makespan %v", len(live.Completions), live.Makespan)
	}
}
