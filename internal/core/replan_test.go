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

// TestDifferentialIncrementalReplan drives scripted episodes that leave
// the nominal state and return to it, then fuzzed degradation event
// sequences, against a long-lived planner whose cost-cache entries carry
// DP rows across events. After every event its plans must be
// byte-identical to a fresh planner's on an identically degraded SoC — a
// fresh planner has no rows to reuse, so it runs the DP from scratch. At
// each return to nominal, planning the pre-episode window must evaluate no
// DP cell, count no cost-cache miss and hand out the profiles from before
// the episode: each entry got back what it held at nominal. The last
// window repeats a model at Parallelism 4; the plan partitions it once and
// gives each occurrence its own copy of the cuts.
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

		// apply applies ev to both SoCs, invalidates the long-lived
		// planner's stale tables and returns the affected set.
		apply := func(step string, ev soc.Event) []int {
			t.Helper()
			affL, err := sLive.Apply(ev)
			if err != nil {
				t.Fatal(err)
			}
			affF, err := sFresh.Apply(ev)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(affL) != fmt.Sprint(affF) {
				t.Fatalf("window %d %s: affected sets diverged: %v vs %v", wi, step, affL, affF)
			}
			live.InvalidateProcessors(affL...)
			return affL
		}
		profiles := func() []*profile.Profile {
			t.Helper()
			out := make([]*profile.Profile, len(models))
			for i, m := range models {
				p, err := live.Profile(m)
				if err != nil {
					t.Fatal(err)
				}
				out[i] = p
			}
			return out
		}
		for ei, episode := range nominalEpisodes {
			pre := profiles()
			for si, ev := range episode {
				step := fmt.Sprintf("episode %d step %d after %s", ei, si, ev)
				affected := apply(step, ev)
				if len(affected) == 0 || !sLive.Nominal() {
					comparePlan(step)
					continue
				}
				cells, reuse := live.DPCells(), live.IncrementalReuse()
				hits, misses := live.CacheStats()
				comparePlan(step)
				if got := live.DPCells() - cells; got != 0 {
					t.Errorf("window %d %s: return to nominal evaluated %d DP cells, want 0", wi, step, got)
				}
				if h, m := live.CacheStats(); m != misses || h == hits {
					t.Errorf("window %d %s: return to nominal counted %d hits and %d misses, want hits only", wi, step, h-hits, m-misses)
				}
				if live.IncrementalReuse() == reuse {
					t.Errorf("window %d %s: return to nominal reused no DP rows", wi, step)
				}
				for i, p := range profiles() {
					if p != pre[i] {
						t.Errorf("window %d %s: %s's profile is not the one from before the episode", wi, step, models[i].Name)
					}
				}
			}
			if !sLive.Nominal() {
				t.Fatalf("window %d: episode %d ends away from nominal", wi, ei)
			}
		}

		offline := map[string]bool{}
		for round := 0; round < rounds; round++ {
			ev := randomEvent(rng, sLive, offline)
			apply(fmt.Sprintf("round %d", round), ev)
			comparePlan(fmt.Sprintf("round %d after %s", round, ev))
		}
	}
}

// nominalEpisodes are event sequences that leave the Kirin 990's nominal
// state and return to it, interleaved with bus squeezes, which never move
// a cost table: a throttle cascade over cpu-big, the GPU and the NPU
// cleared in turn, an offline/online flap, and a DVFS step and its return.
// Each episode's last processor event restores nominal.
var nominalEpisodes = [][]soc.Event{
	{
		{Kind: soc.EventThermalThrottle, Processor: "cpu-big", Factor: 1.5},
		{Kind: soc.EventBandwidthSqueeze, Factor: 0.6},
		{Kind: soc.EventThermalThrottle, Processor: "gpu", Factor: 2},
		{Kind: soc.EventThermalThrottle, Processor: "npu", Factor: 1.3},
		{Kind: soc.EventThermalThrottle, Processor: "gpu", Factor: 1},
		{Kind: soc.EventBandwidthSqueeze, Factor: 1},
		{Kind: soc.EventThermalThrottle, Processor: "npu", Factor: 1},
		{Kind: soc.EventThermalThrottle, Processor: "cpu-big", Factor: 1},
	},
	{
		{Kind: soc.EventBandwidthSqueeze, Factor: 0.5},
		{Kind: soc.EventProcessorOffline, Processor: "npu"},
		{Kind: soc.EventProcessorOnline, Processor: "npu"},
		{Kind: soc.EventBandwidthSqueeze, Factor: 1},
	},
	{
		{Kind: soc.EventFrequencyScale, Processor: "gpu", Factor: 0.5},
		{Kind: soc.EventBandwidthSqueeze, Factor: 0.8},
		{Kind: soc.EventFrequencyScale, Processor: "gpu", Factor: 1},
		{Kind: soc.EventBandwidthSqueeze, Factor: 1},
	},
}

// TestDifferentialRepeatedModelDPCells pins the partition fan-out's
// deduplication: a window that repeats models partitions each distinct
// profile once per plan, so a cold planner at Parallelism 4 evaluates
// exactly the DP cells a sequential one does, plans byte-identically, and
// counts no DP-row reuse. When every occurrence ran its own DP, concurrent
// workers filled one entry's rows twice and the count of this window
// wandered between 1,344 and 2,288 cells across fresh planners.
func TestDifferentialRepeatedModelDPCells(t *testing.T) {
	models := mustModels(t, model.YOLOv4, model.BERT, model.YOLOv4, model.BERT, model.ViT, model.ViT)
	plan := func(parallelism int) (cells, reuse uint64, canon string) {
		pl := newReplanPlanner(t, soc.Kirin990(), parallelism)
		p, _, err := pl.PlanModels(context.Background(), models, 1)
		if err != nil {
			t.Fatal(err)
		}
		return pl.DPCells(), pl.IncrementalReuse(), canonicalPlan(p)
	}
	wantCells, reuse, wantPlan := plan(1)
	if reuse != 0 {
		t.Fatalf("sequential cold plan counted %d DP-row reuses, want 0: a repeat was partitioned again", reuse)
	}
	for i := 0; i < 20; i++ {
		cells, reuse, canon := plan(4)
		if cells != wantCells || reuse != 0 {
			t.Fatalf("planner %d at Parallelism 4: %d DP cells and %d reuses, sequential %d and 0", i, cells, reuse, wantCells)
		}
		if canon != wantPlan {
			t.Fatalf("planner %d at Parallelism 4: plan differs from the sequential one:\n%s\n%s", i, canon, wantPlan)
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

// TestIncrementalReplanSurvivesBumpEpoch pins the manual-mutation path: a
// mutation made in place, bypassing SoC.Apply, leaves the epoch alone, and
// InvalidateCache alone drops the DP rows with the tables and the memoized
// plan, so the next plan refills — never serves rows from the dropped
// tables or a plan from before the mutation.
func TestIncrementalReplanSurvivesBumpEpoch(t *testing.T) {
	mutate := func(s *soc.SoC) *soc.SoC {
		s.Processors[0].Degrade.ThrottleFactor = 2
		return s
	}
	s := soc.Kirin990()
	opts := DefaultOptions()
	opts.PlanCache = 4
	pl, err := NewPlanner(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	models := mustModels(t, model.SqueezeNet)
	if _, _, err := pl.PlanModels(context.Background(), models, 1); err != nil {
		t.Fatal(err)
	}
	epoch := s.Epoch()
	mutate(s)
	if s.Epoch() != epoch {
		t.Fatalf("in-place mutation moved the epoch %d → %d", epoch, s.Epoch())
	}
	pl.InvalidateCache()
	cells := pl.DPCells()
	plan, _, err := pl.PlanModels(context.Background(), models, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pl.DPCells() == cells {
		t.Error("plan after an in-place mutation and InvalidateCache reused the dropped rows")
	}
	fresh, _, err := newReplanPlanner(t, mutate(soc.Kirin990()), 0).PlanModels(context.Background(), models, 1)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalPlan(plan) != canonicalPlan(fresh) {
		t.Error("post-mutation plan differs from a fresh planner's on the mutated SoC")
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
