package core

import (
	"context"
	"math"
	"testing"
	"time"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
)

// TestSelectWeightedDegenerateAxis pins the frontier-selection fix: when a
// frontier is tied on one axis (min == max) and that axis carries a
// non-finite weight, the pre-fix scorer computed weight × 0 = NaN, NaN
// poisoned every point's score, every comparison came back false, and
// selection silently froze on the first (min-makespan) point — ignoring the
// finite weights entirely. Post-fix, a degenerate axis contributes nothing
// regardless of weight, so the finite throughput weight decides.
func TestSelectWeightedDegenerateAxis(t *testing.T) {
	f := &Frontier{Points: []FrontierPoint{
		{Objective: Objective{Makespan: 10 * time.Millisecond, Throughput: 1, EnergyJoules: 5, PeakMemoryBytes: 100}, Candidate: 0},
		{Objective: Objective{Makespan: 20 * time.Millisecond, Throughput: 9, EnergyJoules: 5, PeakMemoryBytes: 100}, Candidate: 1},
	}}
	// Energy and memory are degenerate (both points tied); only throughput
	// should discriminate, so the high-throughput point must win.
	got := f.selectWeighted(Weights{Throughput: 1, Energy: math.Inf(1)})
	if got.Candidate != 1 {
		t.Errorf("degenerate-axis ∞ weight froze selection on candidate %d, want 1 (higher throughput)", got.Candidate)
	}
	// NaN weights are equally poisonous pre-fix.
	got = f.selectWeighted(Weights{Throughput: 1, Memory: math.NaN()})
	if got.Candidate != 1 {
		t.Errorf("NaN weight froze selection on candidate %d, want 1", got.Candidate)
	}
	// A finite weight on a degenerate axis is simply inert.
	got = f.selectWeighted(Weights{Throughput: 1, Energy: 1000})
	if got.Candidate != 1 {
		t.Errorf("finite weight on degenerate axis picked candidate %d, want 1", got.Candidate)
	}
	// All-degenerate-but-makespan with only degenerate weights: tie keeps
	// the first (min-makespan) point, matching latency-critical semantics.
	got = f.selectWeighted(Weights{Energy: 1})
	if got.Candidate != 0 {
		t.Errorf("all-zero effective weights picked candidate %d, want 0", got.Candidate)
	}
}

// TestParseSLOClassRejectsNonFinite pins the grammar hardening that
// accompanies the scorer fix: "custom:" weights must be finite (NaN slipped
// past the old `v < 0` check, and ±Inf parsed cleanly).
func TestParseSLOClassRejectsNonFinite(t *testing.T) {
	for _, bad := range []string{
		"custom:nan,0,0,0",
		"custom:1,inf,0,0",
		"custom:1,0,+inf,0",
		"custom:1,0,0,infinity",
	} {
		if _, err := ParseSLOClass(bad); err == nil {
			t.Errorf("ParseSLOClass(%q) accepted a non-finite weight", bad)
		}
	}
	if _, err := ParseSLOClass("custom:1,0.5,2,0"); err != nil {
		t.Errorf("finite custom weights rejected: %v", err)
	}
}

// TestPlanCacheFrontierHitNoAliasing pins the deep-copy boundary audit: a
// frontier plan-cache hit followed by Frontier.Select hands the caller a
// *FrontierPoint whose plan the caller may mutate — stream executes it,
// experiments rewrite stage rows, batching regroups profiles. No mutation
// through that pointer may reach the cached entry, or every later hit
// replays the corruption.
func TestPlanCacheFrontierHitNoAliasing(t *testing.T) {
	s := soc.Kirin990()
	opts := DefaultOptions()
	opts.PlanCache = 4
	pl, err := NewPlanner(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	models := mustModels(t, model.ResNet50, model.SqueezeNet)
	if _, _, _, err := pl.PlanFrontierModels(context.Background(), models, 1); err != nil {
		t.Fatal(err)
	}

	hit1, _, _, err := pl.PlanFrontierModels(context.Background(), models, 1) // cache hit
	if err != nil {
		t.Fatal(err)
	}
	pristine := make([]string, len(hit1.Points))
	for i := range hit1.Points {
		pristine[i] = canonicalPlan(hit1.Points[i].Plan)
	}

	// Mutate everything reachable through the selected point.
	pt := hit1.Select(SLOBalanced)
	if pt == nil {
		t.Fatal("empty frontier")
	}
	sched := pt.Plan.Schedule
	for i := range sched.Stages {
		for j := range sched.Stages[i] {
			sched.Stages[i][j] = pipeline.LayerRange{From: 1, To: 0}
		}
	}
	for i := range sched.Profiles {
		sched.Profiles[i] = nil
	}
	pt.Plan.Order[0] = 99
	pt.Plan.Classes[0] = 99

	hit2, _, _, err := pl.PlanFrontierModels(context.Background(), models, 1) // second hit must be pristine
	if err != nil {
		t.Fatal(err)
	}
	if len(hit2.Points) != len(pristine) {
		t.Fatalf("frontier size changed %d → %d after caller mutation", len(pristine), len(hit2.Points))
	}
	for i := range hit2.Points {
		if canonicalPlan(hit2.Points[i].Plan) != pristine[i] {
			t.Errorf("frontier point %d: caller mutation through a cache hit reached the cached entry", i)
		}
	}
}

// TestPlanCacheSingleHitProfilesNoAliasing is the single-plan twin: the
// Profiles slice header must not be shared between a hit and the cache.
func TestPlanCacheSingleHitProfilesNoAliasing(t *testing.T) {
	s := soc.Kirin990()
	opts := DefaultOptions()
	opts.PlanCache = 4
	pl, err := NewPlanner(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	models := mustModels(t, model.ResNet50, model.SqueezeNet)
	if _, _, _, err := pl.PlanModels(context.Background(), models, 1); err != nil {
		t.Fatal(err)
	}
	hit1, _, _, err := pl.PlanModels(context.Background(), models, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalPlan(hit1)
	for i := range hit1.Schedule.Profiles {
		hit1.Schedule.Profiles[i] = nil
	}
	hit2, _, _, err := pl.PlanModels(context.Background(), models, 1)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalPlan(hit2) != want {
		t.Error("nil-ing a hit's Profiles slice corrupted the cached plan")
	}
}
