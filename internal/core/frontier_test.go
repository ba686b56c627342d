package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
)

// frontierPlanner builds a fresh planner for the frontier tests.
func frontierPlanner(t *testing.T, s *soc.SoC, parallelism, planCache int) *Planner {
	t.Helper()
	opts := DefaultOptions()
	opts.Parallelism = parallelism
	opts.PlanCache = planCache
	pl, err := NewPlanner(s, opts)
	if err != nil {
		t.Fatalf("NewPlanner(%s): %v", s.Name, err)
	}
	return pl
}

// TestDifferentialFrontierLatencyCritical pins the correctness anchor of the
// frontier mode: the latency-critical point of the Pareto frontier has the
// min-makespan plan's makespan and is no worse on any other axis — at every
// parallelism, with the plan cache off and on, and on the cache's hit path.
// On the first four windows the min-makespan plan lies on the frontier, so
// the point is that very plan, byte for byte. The last window is a
// counterexample on Kirin 990: the makespan winner (the first candidate to
// reach the minimal makespan) is dominated by a later candidate with the
// same makespan and energy and a lower peak memory, so the frontier point
// is that other plan.
func TestDifferentialFrontierLatencyCritical(t *testing.T) {
	windows := []struct {
		names     []string
		identical bool
	}{
		{[]string{model.ResNet50}, true},
		{[]string{model.ResNet50, model.SqueezeNet}, true},
		{[]string{model.BERT, model.MobileNetV2, model.GoogLeNet}, true},
		{[]string{model.YOLOv4, model.SqueezeNet, model.BERT, model.ResNet50}, true},
		{[]string{model.YOLOv4, model.GoogLeNet, model.ResNet50, model.ViT, model.VGG16}, false},
	}
	for _, s := range soc.AllPresets() {
		for _, w := range windows {
			models := mustModels(t, w.names...)
			for _, par := range []int{1, 2, 4} {
				for _, cache := range []int{0, 8} {
					label := fmt.Sprintf("%s/%v par=%d cache=%d", s.Name, w.names, par, cache)
					ref := frontierPlanner(t, s, par, cache)
					plan := mustPlan(t, ref, models)
					want := canonicalPlan(plan)
					res, err := pipeline.Execute(plan.Schedule, ref.opts.ExecOptions)
					if err != nil {
						t.Fatalf("%s: executing the makespan plan: %v", label, err)
					}
					wantObj := referenceObjectiveOf(res)

					pl := frontierPlanner(t, s, par, cache)
					check := func(f *Frontier, path string) {
						t.Helper()
						if f.Size() == 0 {
							t.Fatalf("%s: empty frontier (%s)", label, path)
						}
						pt := f.Select(SLOLatencyCritical)
						if !sameMakespanNoWorse(pt.Objective, wantObj) {
							t.Errorf("%s: latency-critical point %+v is not the makespan plan's %+v or better (%s)",
								label, pt.Objective, wantObj, path)
						}
						// The unset class must fall back to the same point.
						if f.Select(SLOClass{}) != pt {
							t.Errorf("%s: unset-SLO selection differs from latency-critical (%s)", label, path)
						}
						if got := canonicalPlan(pt.Plan); w.identical && got != want {
							t.Errorf("%s: latency-critical frontier point differs from min-makespan plan (%s):\n--- makespan ---\n%s--- frontier ---\n%s",
								label, path, want, got)
						}
					}
					f, _, err := pl.PlanFrontierModels(context.Background(), models, 1)
					if err != nil {
						t.Fatalf("%s: PlanFrontierModels: %v", label, err)
					}
					check(f, "sweep")
					if cache > 0 {
						f2, _, err := pl.PlanFrontierModels(context.Background(), models, 1)
						if err != nil {
							t.Fatalf("%s: cached PlanFrontierModels: %v", label, err)
						}
						if hits, _ := pl.PlanCacheStats(); hits == 0 {
							t.Fatalf("%s: expected a frontier cache hit", label)
						}
						check(f2, "cache hit")
					}
				}
			}
		}
	}
}

// sameMakespanNoWorse reports whether got has exactly want's makespan and is
// no worse than want on any other axis.
func sameMakespanNoWorse(got, want Objective) bool {
	return got.Makespan == want.Makespan && got.Throughput >= want.Throughput &&
		got.EnergyJoules <= want.EnergyJoules && got.PeakMemoryBytes <= want.PeakMemoryBytes
}

func mustPlan(t *testing.T, pl *Planner, models []*model.Model) *Plan {
	t.Helper()
	plan, _, err := pl.PlanModels(context.Background(), models, 1)
	if err != nil {
		t.Fatalf("PlanModels: %v", err)
	}
	return plan
}

// TestFrontierNoDominatedPoints is the dominance property test: no returned
// point may be Pareto-dominated by (or equal in every axis to) another.
func TestFrontierNoDominatedPoints(t *testing.T) {
	windows := [][]string{
		{model.ResNet50, model.SqueezeNet},
		{model.BERT, model.MobileNetV2, model.GoogLeNet},
		{model.YOLOv4, model.SqueezeNet, model.BERT, model.ResNet50},
		{model.VGG16, model.InceptionV4, model.ViT},
	}
	for _, s := range soc.AllPresets() {
		for _, names := range windows {
			pl := frontierPlanner(t, s, 0, 0)
			f, _, err := pl.PlanFrontierModels(context.Background(), mustModels(t, names...), 1)
			if err != nil {
				t.Fatalf("%s/%v: %v", s.Name, names, err)
			}
			for i := range f.Points {
				for j := range f.Points {
					if i == j {
						continue
					}
					if f.Points[j].Objective.Dominates(f.Points[i].Objective) {
						t.Errorf("%s/%v: point %d %+v dominated by point %d %+v",
							s.Name, names, i, f.Points[i].Objective, j, f.Points[j].Objective)
					}
					if i < j && equalObjective(f.Points[i].Objective, f.Points[j].Objective) {
						t.Errorf("%s/%v: duplicate objective at points %d and %d", s.Name, names, i, j)
					}
				}
			}
			// Sorted by makespan ascending, candidate index breaking ties.
			for i := 1; i < f.Size(); i++ {
				a, b := f.Points[i-1], f.Points[i]
				if b.Objective.Makespan < a.Objective.Makespan {
					t.Errorf("%s/%v: frontier not sorted by makespan at %d", s.Name, names, i)
				}
				if b.Objective.Makespan == a.Objective.Makespan && b.Candidate < a.Candidate {
					t.Errorf("%s/%v: candidate tie-break violated at %d", s.Name, names, i)
				}
			}
		}
	}
}

// TestFrontierBatterySaverEnergy: on the same window, the battery-saver class
// must never select a point with more energy than the latency-critical class.
func TestFrontierBatterySaverEnergy(t *testing.T) {
	windows := [][]string{
		{model.ResNet50, model.SqueezeNet},
		{model.YOLOv4, model.SqueezeNet, model.BERT, model.ResNet50},
		{model.BERT, model.MobileNetV2, model.GoogLeNet, model.AlexNet},
	}
	for _, s := range soc.AllPresets() {
		for _, names := range windows {
			pl := frontierPlanner(t, s, 0, 0)
			f, _, err := pl.PlanFrontierModels(context.Background(), mustModels(t, names...), 1)
			if err != nil {
				t.Fatalf("%s/%v: %v", s.Name, names, err)
			}
			saver := f.Select(SLOBatterySaver)
			crit := f.Select(SLOLatencyCritical)
			if saver.Objective.EnergyJoules > crit.Objective.EnergyJoules {
				t.Errorf("%s/%v: battery-saver picked %.4f J > latency-critical %.4f J",
					s.Name, names, saver.Objective.EnergyJoules, crit.Objective.EnergyJoules)
			}
			if crit.Objective.Makespan > saver.Objective.Makespan {
				t.Errorf("%s/%v: latency-critical picked %v > battery-saver %v makespan",
					s.Name, names, crit.Objective.Makespan, saver.Objective.Makespan)
			}
		}
	}
}

// TestPlanCacheFrontierCoexistence: one entry holds both selections of a
// window's sweep, so in either order the first call misses and every later
// call — in either mode — hits. Results stay byte-identical to fresh
// uncached planners, and no returned plan aliases the entry.
func TestPlanCacheFrontierCoexistence(t *testing.T) {
	ctx := context.Background()
	s := soc.Kirin990()
	models := mustModels(t, model.ResNet50, model.SqueezeNet)
	wantPlan := canonicalPlan(mustPlan(t, frontierPlanner(t, s, 0, 0), models))
	fresh, _, err := frontierPlanner(t, s, 0, 0).PlanFrontierModels(ctx, models, 1)
	if err != nil {
		t.Fatal(err)
	}
	wantFrontier := canonicalFrontier(fresh)

	for _, frontierFirst := range []bool{false, true} {
		pl := frontierPlanner(t, s, 0, 8)
		// call plans the window in one mode, vandalises what it returned
		// and checks the cache traffic so far.
		call := func(frontier bool, wantHits, wantMisses uint64) {
			t.Helper()
			label := fmt.Sprintf("frontier first=%t, frontier=%t", frontierFirst, frontier)
			if frontier {
				f, _, err := pl.PlanFrontierModels(ctx, models, 1)
				if err != nil {
					t.Fatal(err)
				}
				if got := canonicalFrontier(f); got != wantFrontier {
					t.Errorf("%s: frontier differs from a fresh planner's:\n--- fresh ---\n%s--- cached ---\n%s", label, wantFrontier, got)
				}
				for _, pt := range f.Points {
					pt.Plan.Order[0] = -1
					pt.Plan.Schedule.Stages[0][0].From = 999
				}
			} else {
				plan, _, err := pl.PlanModels(ctx, models, 1)
				if err != nil {
					t.Fatal(err)
				}
				if got := canonicalPlan(plan); got != wantPlan {
					t.Errorf("%s: plan differs from a fresh planner's:\n--- fresh ---\n%s--- cached ---\n%s", label, wantPlan, got)
				}
				plan.Order[0] = -1
				plan.Schedule.Stages[0][0].From = 999
			}
			if h, m := pl.PlanCacheStats(); h != wantHits || m != wantMisses {
				t.Fatalf("%s: hits=%d misses=%d, want %d/%d", label, h, m, wantHits, wantMisses)
			}
		}
		call(frontierFirst, 0, 1)
		call(!frontierFirst, 1, 1)
		call(frontierFirst, 2, 1)
		call(!frontierFirst, 3, 1)
	}
}

// TestParseSLOClass is the table-driven grammar test for SLO class parsing.
func TestParseSLOClass(t *testing.T) {
	cases := []struct {
		in      string
		want    SLOClass
		wantErr bool
	}{
		{in: "", want: SLOClass{}},
		{in: "latency-critical", want: SLOLatencyCritical},
		{in: "latency", want: SLOLatencyCritical},
		{in: "  Latency-Critical ", want: SLOLatencyCritical},
		{in: "balanced", want: SLOBalanced},
		{in: "battery-saver", want: SLOBatterySaver},
		{in: "battery", want: SLOBatterySaver},
		{in: "energy", want: SLOBatterySaver},
		{in: "custom:1,2,3,4", want: CustomSLO(Weights{Makespan: 1, Throughput: 2, Energy: 3, Memory: 4})},
		{in: "custom:0.5,0,0,1", want: CustomSLO(Weights{Makespan: 0.5, Memory: 1})},
		{in: "gold", wantErr: true},
		{in: "custom:1,2,3", wantErr: true},
		{in: "custom:1,2,3,4,5", wantErr: true},
		{in: "custom:1,2,x,4", wantErr: true},
		{in: "custom:1,2,-3,4", wantErr: true},
	}
	for _, tc := range cases {
		got, err := ParseSLOClass(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParseSLOClass(%q): expected error, got %+v", tc.in, got)
			} else if !errors.Is(err, ErrUnknownSLOClass) {
				t.Errorf("ParseSLOClass(%q): error %v does not wrap ErrUnknownSLOClass", tc.in, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseSLOClass(%q): %v", tc.in, err)
			continue
		}
		if got != tc.want {
			t.Errorf("ParseSLOClass(%q) = %+v, want %+v", tc.in, got, tc.want)
		}
	}
}

// TestParseObjective is the table-driven test for the planning-mode names.
func TestParseObjective(t *testing.T) {
	cases := []struct {
		in      string
		want    ObjectiveMode
		wantErr bool
	}{
		{in: "", want: ObjectiveMakespan},
		{in: "makespan", want: ObjectiveMakespan},
		{in: "latency", want: ObjectiveMakespan},
		{in: "frontier", want: ObjectiveFrontier},
		{in: "pareto", want: ObjectiveFrontier},
		{in: " Frontier ", want: ObjectiveFrontier},
		{in: "speed", wantErr: true},
	}
	for _, tc := range cases {
		got, err := ParseObjective(tc.in)
		if tc.wantErr != (err != nil) {
			t.Errorf("ParseObjective(%q): err=%v, wantErr=%v", tc.in, err, tc.wantErr)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("ParseObjective(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestStrictestSLO checks the strictness ordering used for per-window class
// resolution: latency-critical > custom > balanced > battery-saver > unset.
func TestStrictestSLO(t *testing.T) {
	custom := CustomSLO(Weights{Makespan: 1})
	cases := []struct {
		in   []SLOClass
		want SLOClass
	}{
		{in: nil, want: SLOClass{}},
		{in: []SLOClass{SLOBatterySaver}, want: SLOBatterySaver},
		{in: []SLOClass{SLOBatterySaver, SLOBalanced}, want: SLOBalanced},
		{in: []SLOClass{SLOBalanced, custom}, want: custom},
		{in: []SLOClass{SLOBatterySaver, custom, SLOLatencyCritical}, want: SLOLatencyCritical},
		{in: []SLOClass{{}, SLOBatterySaver}, want: SLOBatterySaver},
	}
	for _, tc := range cases {
		if got := StrictestSLO(tc.in...); got != tc.want {
			t.Errorf("StrictestSLO(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}
