package core

import (
	"context"
	"testing"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// missWindows are the fixed windows of the miss-path guards: one model, a
// mixed four-model window, and six models with a repeat.
var missWindows = [][]string{
	{model.ResNet50},
	{model.YOLOv4, model.SqueezeNet, model.BERT, model.ResNet50},
	{model.VGG16, model.MobileNetV2, model.ViT, model.GoogLeNet, model.AlexNet, model.MobileNetV2},
}

// TestPlanMissAllocBudget pins the allocations of a plan-cache miss: a
// full candidate sweep over profiles whose cost tables and DP rows the cost
// cache already holds. The sweep prices every variant in pooled scratch and
// allocates only what it returns — the winner and frontier Plans and the
// frontier — and its fan-out bookkeeping; both entry points build both
// selections, so they share one budget. Each budget sits a little above
// the measured count (17, 44 and 44). Under -race the pools drop a quarter
// of their Puts and every dropped scratch is re-made for the next priced
// variant, so the race budgets sit above the highest of repeated runs
// (44, 203 and 613).
func TestPlanMissAllocBudget(t *testing.T) {
	ctx := context.Background()
	for wi, budget := range []struct{ plain, race float64 }{{20, 60}, {50, 270}, {50, 800}} {
		names := missWindows[wi]
		pl := mustPlanner(t, soc.Kirin990(), DefaultOptions())
		_, profiles, err := pl.groupProfiles(ctx, mustModels(t, names...), 1)
		if err != nil {
			t.Fatal(err)
		}
		limit := budget.plain
		if raceEnabled {
			limit = budget.race
		}
		for _, m := range []struct {
			name string
			plan func() error
		}{
			{"PlanProfiles", func() error {
				_, err := pl.PlanProfiles(ctx, profiles)
				return err
			}},
			{"PlanFrontierProfiles", func() error {
				_, err := pl.PlanFrontierProfiles(ctx, profiles)
				return err
			}},
		} {
			if err := m.plan(); err != nil { // warm the cost cache and the pools
				t.Fatalf("%v %s: %v", names, m.name, err)
			}
			cells := pl.DPCells()
			avg := testing.AllocsPerRun(50, func() {
				if err := m.plan(); err != nil {
					t.Fatal(err)
				}
			})
			if pl.DPCells() != cells {
				t.Fatalf("%v %s: the measured sweeps evaluated DP cells; the cost cache was not warm", names, m.name)
			}
			t.Logf("%v %s miss: %.0f allocs (budget %.0f)", names, m.name, avg, limit)
			if avg > limit {
				t.Errorf("%v %s: a plan-cache miss allocates %.0f/op, budget %.0f", names, m.name, avg, limit)
			}
		}
	}
}

// TestOptimizeTailLeavesInputUntouched: the exported tail search works on
// its own copy of the schedule, so its input is unchanged and the schedule
// it returns shares no rows with it.
func TestOptimizeTailLeavesInputUntouched(t *testing.T) {
	opts := pipeline.DefaultOptions()
	for _, s := range soc.Presets() {
		for _, names := range missWindows {
			sched := partitionedSchedule(t, s, names)
			want := sched.Clone()
			best, _, err := OptimizeTail(sched, opts)
			if err != nil {
				t.Fatalf("%s %v: %v", s.Name, names, err)
			}
			if canonicalStages(sched) != canonicalStages(want) {
				t.Fatalf("%s %v: OptimizeTail wrote its input:\n got %s\nwant %s", s.Name, names, canonicalStages(sched), canonicalStages(want))
			}
			for i := range best.Stages {
				for st := range best.Stages[i] {
					best.Stages[i][st] = pipeline.LayerRange{From: -7, To: -9}
				}
			}
			if canonicalStages(sched) != canonicalStages(want) {
				t.Fatalf("%s %v: the returned schedule shares rows with the input", s.Name, names)
			}
		}
	}
}

// TestPlanMissOwnsItsPlans: plans returned from a miss own their memory.
// Every slice of a returned plan and frontier is overwritten, the planner
// plans other windows and then the same one again, and both the overwritten
// plans and the new ones must read exactly as they did before: the sweep's
// pooled buffers, reused by the later plans, alias nothing returned.
func TestPlanMissOwnsItsPlans(t *testing.T) {
	ctx := context.Background()
	s := soc.Kirin990()
	pl := mustPlanner(t, s, DefaultOptions())
	fresh := mustPlanner(t, s, DefaultOptions())
	decoy := profileFor(t, s, model.AlexNet)
	for _, names := range missWindows {
		models := mustModels(t, names...)
		plan, _, err := pl.PlanModels(ctx, models, 1)
		if err != nil {
			t.Fatal(err)
		}
		front, _, err := pl.PlanFrontierModels(ctx, models, 1)
		if err != nil {
			t.Fatal(err)
		}
		scribble(plan, decoy)
		for _, pt := range front.Points {
			scribble(pt.Plan, decoy)
		}
		scribbled := canonicalPlan(plan)
		scribbledFront := canonicalFrontier(front)
		for _, other := range missWindows {
			if _, _, err := pl.PlanFrontierModels(ctx, mustModels(t, other...), 1); err != nil {
				t.Fatal(err)
			}
		}
		if canonicalPlan(plan) != scribbled || canonicalFrontier(front) != scribbledFront {
			t.Fatalf("%v: later plans wrote into a returned plan", names)
		}
		again, _, err := pl.PlanModels(ctx, models, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := fresh.PlanModels(ctx, models, 1)
		if err != nil {
			t.Fatal(err)
		}
		if canonicalPlan(again) != canonicalPlan(want) {
			t.Fatalf("%v: replanning after the returned plans were overwritten differs from a fresh planner:\n got %s\nwant %s",
				names, canonicalPlan(again), canonicalPlan(want))
		}
		againFront, _, err := pl.PlanFrontierModels(ctx, models, 1)
		if err != nil {
			t.Fatal(err)
		}
		wantFront, _, err := fresh.PlanFrontierModels(ctx, models, 1)
		if err != nil {
			t.Fatal(err)
		}
		if canonicalFrontier(againFront) != canonicalFrontier(wantFront) {
			t.Fatalf("%v: frontier after the returned plans were overwritten differs from a fresh planner", names)
		}
	}
}

// scribble overwrites every slice a plan holds, pointing its profiles at
// decoy.
func scribble(p *Plan, decoy *profile.Profile) {
	for i := range p.Schedule.Stages {
		for st := range p.Schedule.Stages[i] {
			p.Schedule.Stages[i][st] = pipeline.LayerRange{From: 99, To: -99}
		}
		p.Schedule.Profiles[i] = decoy
		p.Order[i] = -1
		p.Classes[i] = 0
		p.Intensities[i] = -1
		p.HorizontalMakespans[i] = -1
		for b := range p.Cuts[i] {
			p.Cuts[i][b] = -1
		}
	}
}

// canonicalStages renders a schedule's stage rows.
func canonicalStages(s *pipeline.Schedule) string {
	var b []byte
	for _, row := range s.Stages {
		for _, r := range row {
			b = append(b, byte(r.From), byte(r.From>>8), byte(r.To), byte(r.To>>8))
		}
		b = append(b, '|')
	}
	return string(b)
}
