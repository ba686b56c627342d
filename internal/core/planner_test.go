package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"hetero2pipe/internal/contention"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
)

func mustPlanner(t *testing.T, s *soc.SoC, opts Options) *Planner {
	t.Helper()
	pl, err := NewPlanner(s, opts)
	if err != nil {
		t.Fatalf("NewPlanner: %v", err)
	}
	return pl
}

func modelsOf(names ...string) []*model.Model {
	out := make([]*model.Model, len(names))
	for i, n := range names {
		out[i] = model.MustByName(n)
	}
	return out
}

func TestNewPlannerValidation(t *testing.T) {
	bad := soc.Kirin990()
	bad.BusBandwidthGBps = -1
	if _, err := NewPlanner(bad, DefaultOptions()); err == nil {
		t.Error("invalid SoC accepted")
	}
	opts := DefaultOptions()
	opts.HighQuantile = 2
	if _, err := NewPlanner(soc.Kirin990(), opts); err == nil {
		t.Error("invalid quantile accepted")
	}
}

func TestPlanEndToEnd(t *testing.T) {
	pl := mustPlanner(t, soc.Kirin990(), DefaultOptions())
	plan, _, _, err := pl.PlanModels(context.Background(), modelsOf(
		model.YOLOv4, model.SqueezeNet, model.BERT, model.ResNet50,
		model.MobileNetV2, model.ViT), 1)
	if err != nil {
		t.Fatalf("PlanModels: %v", err)
	}
	if err := plan.Schedule.Validate(); err != nil {
		t.Fatalf("planned schedule invalid: %v", err)
	}
	if len(plan.Order) != 6 || len(plan.Classes) != 6 || len(plan.Intensities) != 6 {
		t.Fatalf("plan artefacts incomplete: %+v", plan)
	}
	seen := map[int]bool{}
	for _, v := range plan.Order {
		if seen[v] {
			t.Fatalf("order %v not a permutation", plan.Order)
		}
		seen[v] = true
	}
	res, err := pipeline.ExecuteContext(t.Context(), plan.Schedule, pipeline.DefaultOptions())
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.Makespan <= 0 {
		t.Error("zero makespan")
	}
}

// TestPlanBeatsSerial: the headline claim — the planned pipeline is several
// times faster than serial big-CPU execution (the paper's MNN baseline).
func TestPlanBeatsSerial(t *testing.T) {
	s := soc.Kirin990()
	names := []string{model.ResNet50, model.VGG16, model.SqueezeNet,
		model.InceptionV4, model.MobileNetV2, model.GoogLeNet}
	pl := mustPlanner(t, s, DefaultOptions())
	plan, _, _, err := pl.PlanModels(context.Background(), modelsOf(names...), 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.ExecuteContext(t.Context(), plan.Schedule, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	serial := serialCPUMakespan(t, s, names)
	speedup := serial.Seconds() / res.Makespan.Seconds()
	if speedup < 2 {
		t.Errorf("speedup over serial CPU = %.2f×, want ≥ 2× (paper: 4.2× avg)", speedup)
	}
}

func serialCPUMakespan(t *testing.T, s *soc.SoC, names []string) (total time.Duration) {
	t.Helper()
	bigIdx := s.ProcessorsOfKind(soc.KindCPUBig)[0]
	for _, n := range names {
		p := profileFor(t, s, n)
		total += p.SliceTime(bigIdx, 0, p.NumLayers()-1)
	}
	return total
}

// TestPlanFullBeatsNoCT: contention mitigation + tail optimisation must not
// hurt, and across a mixed workload should help (the paper's 1.3× average).
func TestPlanFullBeatsNoCT(t *testing.T) {
	s := soc.Kirin990()
	names := []string{model.SqueezeNet, model.MobileNetV2, model.BERT,
		model.YOLOv4, model.AlexNet, model.ResNet50, model.GoogLeNet, model.ViT}
	full := mustPlanner(t, s, DefaultOptions())
	noct := mustPlanner(t, s, NoCTOptions())
	planFull, _, _, err := full.PlanModels(context.Background(), modelsOf(names...), 1)
	if err != nil {
		t.Fatal(err)
	}
	planNoCT, _, _, err := noct.PlanModels(context.Background(), modelsOf(names...), 1)
	if err != nil {
		t.Fatal(err)
	}
	resFull, err := pipeline.ExecuteContext(t.Context(), planFull.Schedule, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	resNoCT, err := pipeline.ExecuteContext(t.Context(), planNoCT.Schedule, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if resFull.Makespan > resNoCT.Makespan {
		t.Errorf("full H²P %v slower than No C/T %v", resFull.Makespan, resNoCT.Makespan)
	}
}

func TestPlanEmpty(t *testing.T) {
	pl := mustPlanner(t, soc.Kirin990(), DefaultOptions())
	plan, _, _, err := pl.PlanModels(context.Background(), nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Schedule.NumRequests() != 0 {
		t.Error("empty plan has requests")
	}
}

func TestPlanOnAllPresets(t *testing.T) {
	for _, s := range soc.Presets() {
		pl := mustPlanner(t, s, DefaultOptions())
		plan, _, _, err := pl.PlanModels(context.Background(), modelsOf(model.BERT, model.SqueezeNet, model.YOLOv4, model.ResNet50), 1)
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		if _, err := pipeline.ExecuteContext(t.Context(), plan.Schedule, pipeline.DefaultOptions()); err != nil {
			t.Fatalf("%s: execute: %v", s.Name, err)
		}
	}
}

// TestPlannedOrderNeverWorseThanIdentity: the ordering step evaluates the
// identity order among its candidates, so the chosen order can only match
// or beat it.
func TestPlannedOrderNeverWorseThanIdentity(t *testing.T) {
	s := soc.Kirin990()
	names := []string{model.AlexNet, model.MobileNetV2, model.InceptionV4,
		model.ViT, model.GoogLeNet, model.YOLOv4}
	full := mustPlanner(t, s, DefaultOptions())
	planFull, _, _, err := full.PlanModels(context.Background(), modelsOf(names...), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Identity-order reference: mitigation and ordering candidates off,
	// everything else identical.
	optsID := DefaultOptions()
	optsID.Mitigation = false
	idPlanner := mustPlanner(t, s, optsID)
	planID, _, _, err := idPlanner.PlanModels(context.Background(), modelsOf(names...), 1)
	if err != nil {
		t.Fatal(err)
	}
	resFull, err := pipeline.ExecuteContext(t.Context(), planFull.Schedule, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	resID, err := pipeline.ExecuteContext(t.Context(), planID.Schedule, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Both planners include the identity candidate; the full planner also
	// sees mitigated candidates, so it can only do as well or better.
	if resFull.Makespan.Seconds() > resID.Makespan.Seconds()*1.001 {
		t.Errorf("full planner %v worse than identity-only %v", resFull.Makespan, resID.Makespan)
	}
	// Class labels still ride along for inspection.
	highs := 0
	for _, c := range planFull.Classes {
		if c == contention.High {
			highs++
		}
	}
	if highs == 0 || highs == len(planFull.Classes) {
		t.Errorf("degenerate H/L split: %v", planFull.Classes)
	}
}

// TestPlanSpanSweepCounters pins the plan span's sweep counters in both
// planning modes. A one-model window has a single ordering, so all six
// candidates price one vertical pass. YOLOv4+SqueezeNet+BERT on the
// Kirin 990 classes as H,H,L: its three sort orders differ, and with one L
// request Algorithm 2 cannot separate the H pair within the 4-processor
// contention window, so each mitigated candidate repeats its sort order —
// three distinct orderings. tail_pruned pins how many tail variants the
// solo bound skipped unpriced and tail_cutoff how many Search.Price
// abandoned at the incumbent's makespan: three and none in the one-model
// window (its one unpruned variant wins); fifteen and eight across the
// three-model window's three passes, where the processor-load bound the
// solo bound replaced skipped thirteen and left ten to the cutoff.
func TestPlanSpanSweepCounters(t *testing.T) {
	for _, tc := range []struct {
		names  []string
		priced int64
		pruned int64
		cutoff int64
	}{
		{[]string{model.ResNet50}, 1, 3, 0},
		{[]string{model.YOLOv4, model.SqueezeNet, model.BERT}, 3, 15, 8},
	} {
		models := modelsOf(tc.names...)
		for _, frontier := range []bool{false, true} {
			rec := obs.NewSpanRecorder(0)
			ctx := obs.ContextWithRecorder(context.Background(), rec)
			pl := mustPlanner(t, soc.Kirin990(), DefaultOptions())
			var err error
			if frontier {
				_, _, _, err = pl.PlanFrontierModels(ctx, models, 1)
			} else {
				_, _, _, err = pl.PlanModels(ctx, models, 1)
			}
			if err != nil {
				t.Fatalf("%v (frontier %v): %v", tc.names, frontier, err)
			}
			var plans int
			for _, sp := range rec.Spans() {
				if sp.Name != "plan" {
					continue
				}
				plans++
				if got, ok := sp.Attr("orderings_priced"); !ok || got.AsInt() != tc.priced {
					t.Errorf("%v (frontier %v): orderings_priced = %d (present %v), want %d",
						tc.names, frontier, got.AsInt(), ok, tc.priced)
				}
				if got, ok := sp.Attr("tail_pruned"); !ok || got.AsInt() != tc.pruned {
					t.Errorf("%v (frontier %v): tail_pruned = %d (present %v), want %d",
						tc.names, frontier, got.AsInt(), ok, tc.pruned)
				}
				if got, ok := sp.Attr("tail_cutoff"); !ok || got.AsInt() != tc.cutoff {
					t.Errorf("%v (frontier %v): tail_cutoff = %d (present %v), want %d",
						tc.names, frontier, got.AsInt(), ok, tc.cutoff)
				}
			}
			if plans != 1 {
				t.Fatalf("%v (frontier %v): %d plan spans, want 1", tc.names, frontier, plans)
			}
		}
	}
}

// TestObsPlanSpanCacheTraffic: a plan span carries its call's own
// cost-cache traffic, the profile lookups PlanModels makes before the span
// opens included. A traced 3-model window reads 0 hits and 3 misses on a
// cold planner and 3 hits and 0 misses on a warm one, matching the call's
// Account and the move of the planner_cache_{hits,misses}_total series.
func TestObsPlanSpanCacheTraffic(t *testing.T) {
	models := modelsOf(model.ResNet50, model.BERT, model.VGG16)
	opts := DefaultOptions()
	opts.Metrics = obs.NewRegistry("test")
	pl := mustPlanner(t, soc.Kirin990(), opts)
	hitsTotal := opts.Metrics.Counter("planner_cache_hits_total")
	missesTotal := opts.Metrics.Counter("planner_cache_misses_total")
	for _, want := range []struct {
		step         string
		hits, misses int64
	}{{"cold", 0, 3}, {"warm", 3, 0}} {
		rec := obs.NewSpanRecorder(0)
		hits0, misses0 := hitsTotal.Value(), missesTotal.Value()
		_, _, acc, err := pl.PlanModels(obs.ContextWithRecorder(context.Background(), rec), models, 1)
		if err != nil {
			t.Fatalf("%s: %v", want.step, err)
		}
		var plans int
		for _, sp := range rec.Spans() {
			if sp.Name != "plan" {
				continue
			}
			plans++
			hits, okH := sp.Attr("cache_hits")
			misses, okM := sp.Attr("cache_misses")
			if !okH || !okM || hits.AsInt() != want.hits || misses.AsInt() != want.misses {
				t.Errorf("%s: plan span reads %d hits and %d misses (present %v, %v), want %d and %d",
					want.step, hits.AsInt(), misses.AsInt(), okH, okM, want.hits, want.misses)
			}
		}
		if plans != 1 {
			t.Fatalf("%s: %d plan spans, want 1", want.step, plans)
		}
		if acc.CacheHits != uint64(want.hits) || acc.CacheMisses != uint64(want.misses) {
			t.Errorf("%s: account reads %d hits and %d misses, want %d and %d",
				want.step, acc.CacheHits, acc.CacheMisses, want.hits, want.misses)
		}
		if hits, misses := hitsTotal.Value(), missesTotal.Value(); hits-hits0 != acc.CacheHits || misses-misses0 != acc.CacheMisses {
			t.Errorf("%s: the planner_cache series moved by %d hits and %d misses, the account reads %d and %d",
				want.step, hits-hits0, misses-misses0, acc.CacheHits, acc.CacheMisses)
		}
	}
}

// TestOptimizeTailResultMatchesExecute pins the contract that lets the
// planner skip its final execution: the Result the tail search returns is
// exactly what executing the returned schedule yields.
func TestOptimizeTailResultMatchesExecute(t *testing.T) {
	opts := pipeline.DefaultOptions()
	for _, s := range soc.Presets() {
		for _, names := range [][]string{
			{model.ResNet50},
			{model.YOLOv4, model.SqueezeNet, model.BERT},
			{model.VGG16, model.MobileNetV2, model.ViT, model.GoogLeNet, model.AlexNet},
		} {
			pl := mustPlanner(t, s, DefaultOptions())
			_, profiles, err := pl.groupProfiles(context.Background(), modelsOf(names...), 1, new(Account))
			if err != nil {
				t.Fatal(err)
			}
			cuts := make([]pipeline.Cuts, len(profiles))
			for i, p := range profiles {
				if cuts[i], _, err = PartitionContext(t.Context(), p); err != nil {
					t.Fatal(err)
				}
			}
			sched, err := pipeline.FromCuts(s, profiles, cuts)
			if err != nil {
				t.Fatal(err)
			}
			best, res, err := OptimizeTail(sched, opts)
			if err != nil {
				t.Fatalf("%s %v: OptimizeTail: %v", s.Name, names, err)
			}
			want, err := pipeline.ExecuteContext(t.Context(), best, opts)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res, want) {
				t.Errorf("%s %v: tail search Result differs from executing its schedule", s.Name, names)
			}
		}
	}
}
