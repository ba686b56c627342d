package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// newReplanPlanner builds a default-options planner at the given
// parallelism (≤ 0 keeps the default).
func newReplanPlanner(t testing.TB, s *soc.SoC, parallelism int) *Planner {
	t.Helper()
	opts := DefaultOptions()
	if parallelism > 0 {
		opts.Parallelism = parallelism
	}
	pl, err := NewPlanner(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestDifferentialIncrementalReplan fuzzes degradation event sequences
// against a long-lived planner, whose cost-cache entries carry DP rows
// across events, and after every event requires its plans to be
// byte-identical to a fresh planner's on an identically degraded SoC — a
// fresh planner has no rows to reuse, so it runs the DP from scratch. The
// last window repeats a model at Parallelism 4, so under -race several
// workers resume and publish one entry's rows concurrently.
func TestDifferentialIncrementalReplan(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	windows := []struct {
		names       []string
		parallelism int
	}{
		{[]string{model.YOLOv4, model.SqueezeNet, model.BERT}, 0},
		{[]string{model.ResNet50, model.MobileNetV2, model.GoogLeNet, model.SqueezeNet}, 0},
		{[]string{model.ViT, model.AlexNet}, 0},
		{[]string{model.ResNet50, model.SqueezeNet, model.ResNet50, model.ResNet50}, 4},
	}
	rounds := 8
	if testing.Short() {
		rounds = 3
	}
	for wi, w := range windows {
		models := mustModels(t, w.names...)
		sLive, sFresh := soc.Kirin990(), soc.Kirin990()
		live := newReplanPlanner(t, sLive, w.parallelism)

		comparePlan := func(step string) {
			t.Helper()
			pi, _, errI := live.PlanModels(context.Background(), models, 1)
			pf, _, errF := newReplanPlanner(t, sFresh, w.parallelism).PlanModels(context.Background(), models, 1)
			if (errI == nil) != (errF == nil) {
				t.Fatalf("window %d %s: long-lived err %v vs fresh err %v", wi, step, errI, errF)
			}
			if errI != nil {
				if !errors.Is(errI, ErrInfeasiblePartition) {
					t.Fatalf("window %d %s: %v", wi, step, errI)
				}
				return
			}
			if got, want := canonicalPlan(pi), canonicalPlan(pf); got != want {
				t.Fatalf("window %d %s: long-lived plan differs from a fresh planner's:\n--- long-lived ---\n%s--- fresh ---\n%s",
					wi, step, got, want)
			}
		}
		comparePlan("initial")
		// Replanning the same window at the same epoch must fully reuse.
		before := live.IncrementalReuse()
		comparePlan("repeat")
		if live.IncrementalReuse() <= before {
			t.Fatalf("window %d: same-epoch replan did not reuse the DP rows", wi)
		}

		offline := map[string]bool{}
		for round := 0; round < rounds; round++ {
			ev := randomEvent(rng, sLive, offline)
			affL, err := sLive.Apply(ev)
			if err != nil {
				t.Fatal(err)
			}
			affF, err := sFresh.Apply(ev)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(affL) != fmt.Sprint(affF) {
				t.Fatalf("window %d round %d: affected sets diverged: %v vs %v", wi, round, affL, affF)
			}
			live.InvalidateProcessors(affL...)
			comparePlan(fmt.Sprintf("round %d after %s", round, ev))
		}
	}
}

// randomEvent draws one state-changing degradation event, keeping at least
// two processors online so windows stay (mostly) feasible.
func randomEvent(rng *rand.Rand, s *soc.SoC, offline map[string]bool) soc.Event {
	for {
		p := s.Processors[rng.Intn(len(s.Processors))].ID
		switch rng.Intn(5) {
		case 0:
			return soc.Event{Kind: soc.EventThermalThrottle, Processor: p, Factor: 1 + rng.Float64()*2}
		case 1:
			return soc.Event{Kind: soc.EventFrequencyScale, Processor: p, Factor: 0.4 + rng.Float64()*0.6}
		case 2:
			if len(offline) >= len(s.Processors)-2 || offline[p] {
				continue
			}
			offline[p] = true
			return soc.Event{Kind: soc.EventProcessorOffline, Processor: p}
		case 3:
			if !offline[p] {
				continue
			}
			delete(offline, p)
			return soc.Event{Kind: soc.EventProcessorOnline, Processor: p}
		default:
			return soc.Event{Kind: soc.EventBandwidthSqueeze, Factor: 0.3 + rng.Float64()*0.7}
		}
	}
}

// TestIncrementalReplanSameEpochFullReuse pins the zero-work fast path: a
// second plan of the same window at the same epoch runs zero DP cells.
func TestIncrementalReplanSameEpochFullReuse(t *testing.T) {
	s := soc.Kirin990()
	pl := newReplanPlanner(t, s, 0)
	models := mustModels(t, model.ResNet50, model.SqueezeNet)
	if _, _, err := pl.PlanModels(context.Background(), models, 1); err != nil {
		t.Fatal(err)
	}
	cells := pl.DPCells()
	if _, _, err := pl.PlanModels(context.Background(), models, 1); err != nil {
		t.Fatal(err)
	}
	if delta := pl.DPCells() - cells; delta != 0 {
		t.Errorf("same-epoch replan evaluated %d DP cells, want 0", delta)
	}
	if pl.IncrementalReuse() == 0 {
		t.Error("IncrementalReuse counter not incremented")
	}
}

// TestIncrementalReplanBusOnlyFullReuse pins the bus-only shortcut: a
// bandwidth squeeze bumps the epoch but stales no solo table, so the whole
// partition is reused with zero DP cells.
func TestIncrementalReplanBusOnlyFullReuse(t *testing.T) {
	s := soc.Kirin990()
	pl := newReplanPlanner(t, s, 0)
	models := mustModels(t, model.ResNet50, model.SqueezeNet)
	if _, _, err := pl.PlanModels(context.Background(), models, 1); err != nil {
		t.Fatal(err)
	}
	affected, err := s.Apply(soc.Event{Kind: soc.EventBandwidthSqueeze, Factor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	pl.InvalidateProcessors(affected...)
	cells := pl.DPCells()
	plan, _, err := pl.PlanModels(context.Background(), models, 1)
	if err != nil {
		t.Fatal(err)
	}
	if delta := pl.DPCells() - cells; delta != 0 {
		t.Errorf("bus-only replan evaluated %d DP cells, want 0", delta)
	}
	// The reused partition must still price bit-identically to a fresh
	// planner on an identically-squeezed SoC.
	s2 := soc.Kirin990()
	if _, err := s2.Apply(soc.Event{Kind: soc.EventBandwidthSqueeze, Factor: 0.5}); err != nil {
		t.Fatal(err)
	}
	fresh, _, err := newReplanPlanner(t, s2, 0).PlanModels(context.Background(), models, 1)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalPlan(plan) != canonicalPlan(fresh) {
		t.Error("bus-only reused plan differs from a fresh planner's")
	}
}

// TestIncrementalReplanResumesMidTable throttles each processor q of the
// Kirin 990 in turn and requires the replan to evaluate exactly the rows of
// stages q..K−1 — (K−q)·n cells — and to match a fresh planner's plan on an
// identically throttled SoC byte for byte.
func TestIncrementalReplanResumesMidTable(t *testing.T) {
	models := mustModels(t, model.ResNet50)
	n := models[0].NumLayers()
	procs := soc.Kirin990().Processors
	k := len(procs)
	for q, proc := range procs {
		t.Run(proc.ID, func(t *testing.T) {
			throttle := soc.Event{Kind: soc.EventThermalThrottle, Processor: proc.ID, Factor: 1.7}
			s := soc.Kirin990()
			pl := newReplanPlanner(t, s, 0)
			if _, _, err := pl.PlanModels(context.Background(), models, 1); err != nil {
				t.Fatal(err)
			}
			if got, want := pl.DPCells(), uint64(k*n); got != want {
				t.Fatalf("first plan ran %d DP cells, want K·n = %d", got, want)
			}
			affected, err := s.Apply(throttle)
			if err != nil {
				t.Fatal(err)
			}
			if len(affected) != 1 || affected[0] != q {
				t.Fatalf("affected = %v, want [%d]", affected, q)
			}
			pl.InvalidateProcessors(affected...)
			cells, reuse := pl.DPCells(), pl.IncrementalReuse()
			plan, _, err := pl.PlanModels(context.Background(), models, 1)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := pl.DPCells()-cells, uint64((k-q)*n); got != want {
				t.Errorf("replan after throttling stage %d ran %d DP cells, want (K−q)·n = %d", q, got, want)
			}
			if got, want := pl.IncrementalReuse()-reuse, uint64(min(q, 1)); got != want {
				t.Errorf("replan after throttling stage %d counted %d reuses, want %d", q, got, want)
			}
			s2 := soc.Kirin990()
			if _, err := s2.Apply(throttle); err != nil {
				t.Fatal(err)
			}
			fresh, _, err := newReplanPlanner(t, s2, 0).PlanModels(context.Background(), models, 1)
			if err != nil {
				t.Fatal(err)
			}
			if canonicalPlan(plan) != canonicalPlan(fresh) {
				t.Error("resumed plan differs from a fresh planner's")
			}
		})
	}
}

// TestIncrementalReplanSurvivesBumpEpoch pins the manual-mutation path:
// InvalidateCache after a BumpEpoch drops the DP rows with the tables, so
// the next plan refills — never serves rows from the dropped tables.
func TestIncrementalReplanSurvivesBumpEpoch(t *testing.T) {
	s := soc.Kirin990()
	pl := newReplanPlanner(t, s, 0)
	models := mustModels(t, model.SqueezeNet)
	if _, _, err := pl.PlanModels(context.Background(), models, 1); err != nil {
		t.Fatal(err)
	}
	s.BumpEpoch()
	pl.InvalidateCache()
	cells := pl.DPCells()
	plan, _, err := pl.PlanModels(context.Background(), models, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pl.DPCells() == cells {
		t.Error("plan after BumpEpoch+InvalidateCache reused the dropped rows")
	}
	fresh, _, err := newReplanPlanner(t, soc.Kirin990(), 0).PlanModels(context.Background(), models, 1)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalPlan(plan) != canonicalPlan(fresh) {
		t.Error("post-bump plan differs from a fresh planner's")
	}
}

// TestIncrementalReplanCallerProfilesBypassMemo pins the memo's scope: a
// profile the caller built is partitioned from scratch on every plan, and
// planning it neither reads nor replaces the rows on the cost-cache entry
// of the same model.
func TestIncrementalReplanCallerProfilesBypassMemo(t *testing.T) {
	s := soc.Kirin990()
	pl := newReplanPlanner(t, s, 0)
	models := mustModels(t, model.ResNet50)
	if _, _, err := pl.PlanModels(context.Background(), models, 1); err != nil {
		t.Fatal(err)
	}
	full := pl.DPCells()
	caller, err := profile.New(s, models[0])
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		cells := pl.DPCells()
		if _, err := pl.PlanProfiles(context.Background(), []*profile.Profile{caller}); err != nil {
			t.Fatal(err)
		}
		if got := pl.DPCells() - cells; got != full {
			t.Errorf("caller-built plan %d ran %d DP cells, want a full %d", i, got, full)
		}
	}
	if pl.IncrementalReuse() != 0 {
		t.Errorf("caller-built plans counted %d reuses, want 0", pl.IncrementalReuse())
	}
	cells := pl.DPCells()
	if _, _, err := pl.PlanModels(context.Background(), models, 1); err != nil {
		t.Fatal(err)
	}
	if got := pl.DPCells() - cells; got != 0 {
		t.Errorf("cached-profile replan ran %d DP cells after caller-built plans, want 0", got)
	}
}
