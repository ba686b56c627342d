package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/soc"
)

func newCachedPlanner(t *testing.T, s *soc.SoC, capacity int) *Planner {
	t.Helper()
	opts := DefaultOptions()
	opts.PlanCache = capacity
	pl, err := NewPlanner(s, opts)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

// TestPlanCacheHitIsByteIdentical: replanning an identical window must be a
// cache hit, skip the DP entirely, and return a plan byte-identical both to
// the first (missed) plan and to a cache-disabled planner's plan.
func TestPlanCacheHitIsByteIdentical(t *testing.T) {
	models := mustModels(t, model.ResNet50, model.SqueezeNet, model.BERT)
	pl := newCachedPlanner(t, soc.Kirin990(), 4)

	first, _, acc, err := pl.PlanModels(context.Background(), models, 1)
	if err != nil {
		t.Fatal(err)
	}
	if acc.PlanCacheHits != 0 || acc.PlanCacheMisses != 1 {
		t.Fatalf("cold plan: plan-cache hits=%d misses=%d, want 0/1", acc.PlanCacheHits, acc.PlanCacheMisses)
	}
	second, _, acc, err := pl.PlanModels(context.Background(), models, 1)
	if err != nil {
		t.Fatal(err)
	}
	if acc.PlanCacheHits != 1 || acc.PlanCacheMisses != 0 {
		t.Fatalf("warm plan: plan-cache hits=%d misses=%d, want 1/0", acc.PlanCacheHits, acc.PlanCacheMisses)
	}
	if acc.DPCells != 0 {
		t.Errorf("cache hit still evaluated %d DP cells", acc.DPCells)
	}
	if canonicalPlan(second) != canonicalPlan(first) {
		t.Error("cached plan differs from the plan that populated it")
	}

	ref, err := NewPlanner(soc.Kirin990(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, _, _, err := ref.PlanModels(context.Background(), models, 1)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalPlan(second) != canonicalPlan(want) {
		t.Error("cached plan differs from a cache-disabled planner's plan")
	}
}

// TestPlanCacheLRUBound: the entry count never exceeds the capacity, the
// least-recently-used window is the one evicted, and a recently-touched
// window survives.
func TestPlanCacheLRUBound(t *testing.T) {
	pl := newCachedPlanner(t, soc.Kirin990(), 2)
	winA := mustModels(t, model.SqueezeNet)
	winB := mustModels(t, model.MobileNetV2)
	winC := mustModels(t, model.AlexNet)

	for _, win := range [][]*model.Model{winA, winB} {
		if _, _, _, err := pl.PlanModels(context.Background(), win, 1); err != nil {
			t.Fatal(err)
		}
	}
	if n := pl.planCache.len(); n != 2 {
		t.Fatalf("entries = %d, want 2", n)
	}
	// Touch A so B becomes least-recently-used, then insert C.
	if _, _, _, err := pl.PlanModels(context.Background(), winA, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := pl.PlanModels(context.Background(), winC, 1); err != nil {
		t.Fatal(err)
	}
	if n := pl.planCache.len(); n != 2 {
		t.Fatalf("entries after eviction = %d, want 2", n)
	}
	_, _, acc, err := pl.PlanModels(context.Background(), winA, 1) // survived (recently used)
	if err != nil {
		t.Fatal(err)
	}
	if acc.PlanCacheHits != 1 || acc.PlanCacheMisses != 0 {
		t.Errorf("replanning the recently-used window: hits=%d misses=%d, want a pure hit",
			acc.PlanCacheHits, acc.PlanCacheMisses)
	}
	if _, _, acc, err = pl.PlanModels(context.Background(), winB, 1); err != nil { // evicted
		t.Fatal(err)
	}
	if acc.PlanCacheMisses != 1 {
		t.Errorf("replanning the evicted window was not a miss (misses=%d)", acc.PlanCacheMisses)
	}
}

// TestPlanCacheDeepCopyOnHit: callers own their plans outright — mutating a
// returned plan (slices and schedule rows alike) must not leak into the
// cache's copy.
func TestPlanCacheDeepCopyOnHit(t *testing.T) {
	models := mustModels(t, model.ResNet50, model.GoogLeNet)
	pl := newCachedPlanner(t, soc.Kirin990(), 4)
	first, _, _, err := pl.PlanModels(context.Background(), models, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalPlan(first)

	vandalise := func(p *Plan) {
		p.Order[0] = 999
		p.Classes[0]++
		p.Intensities[0] = -1
		p.Schedule.Stages[0][0].From = 999
	}
	vandalise(first) // mutate the plan that seeded the cache

	second, _, _, err := pl.PlanModels(context.Background(), models, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalPlan(second); got != want {
		t.Fatalf("mutating the seeding plan corrupted the cache:\nwant %s\ngot %s", want, got)
	}
	vandalise(second) // mutate a hit-served plan

	third, _, _, err := pl.PlanModels(context.Background(), models, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalPlan(third); got != want {
		t.Fatalf("mutating a hit-served plan corrupted the cache:\nwant %s\ngot %s", want, got)
	}
}

// TestPlanCacheStateKey: a state-changing degradation event moves the SoC
// state identity, so the next identical window misses and replans on the
// degraded tables — a bus squeeze too, which stales no table but changes
// plans — while a no-op event keeps the identity and the hit stream. A
// return to a state the cache has planned in hits again: the plan from
// that state, byte-identical to a fresh planner's there.
func TestPlanCacheStateKey(t *testing.T) {
	s := soc.Kirin990()
	pl := newCachedPlanner(t, s, 4)
	models := mustModels(t, model.ResNet50, model.SqueezeNet)
	var total Account
	plan := func(step string, hits, misses uint64) string {
		t.Helper()
		p, _, acc, err := pl.PlanModels(context.Background(), models, 1)
		if err != nil {
			t.Fatal(err)
		}
		total.Add(acc)
		if total.PlanCacheHits != hits || total.PlanCacheMisses != misses {
			t.Fatalf("%s: hits=%d misses=%d so far, want %d/%d", step, total.PlanCacheHits, total.PlanCacheMisses, hits, misses)
		}
		return canonicalPlan(p)
	}
	apply := func(ev soc.Event) {
		t.Helper()
		if _, err := s.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	nominal := plan("first plan", 0, 1)

	// No-op event first: restating the online NPU changes nothing.
	affected, err := s.Apply(soc.Event{Kind: soc.EventProcessorOnline, Processor: "npu"})
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) != 0 {
		t.Fatalf("no-op event staled processors %v", affected)
	}
	plan("after no-op event (still a hit)", 1, 1)

	apply(soc.Event{Kind: soc.EventThermalThrottle, Processor: "cpu-big", Factor: 1.5})
	throttled := plan("after throttle (a miss)", 1, 2)
	apply(soc.Event{Kind: soc.EventBandwidthSqueeze, Factor: 0.6})
	plan("after bus squeeze (a miss)", 1, 3)

	apply(soc.Event{Kind: soc.EventBandwidthSqueeze, Factor: 1})
	if got := plan("back to the throttled state (a hit)", 2, 3); got != throttled {
		t.Error("the throttled state's hit differs from its first plan")
	}
	apply(soc.Event{Kind: soc.EventThermalThrottle, Processor: "cpu-big", Factor: 1})
	if got := plan("back to nominal (a hit)", 3, 3); got != nominal {
		t.Error("the nominal state's hit differs from its first plan")
	}
}

// TestPlanCacheRevisitHit plans one window in a throttled state, then at
// nominal, then in the throttled state again: the third plan is a
// plan-cache hit, byte-identical to a fresh planner's plan in that state.
func TestPlanCacheRevisitHit(t *testing.T) {
	s := soc.Kirin990()
	pl := newCachedPlanner(t, s, 4)
	models := mustModels(t, model.YOLOv4, model.SqueezeNet, model.BERT)
	throttle := soc.Event{Kind: soc.EventThermalThrottle, Processor: "gpu", Factor: 1.8}
	var last *Plan
	var total Account
	for i, ev := range []soc.Event{
		throttle,
		{Kind: soc.EventThermalThrottle, Processor: "gpu", Factor: 1},
		throttle,
	} {
		if _, err := s.Apply(ev); err != nil {
			t.Fatal(err)
		}
		p, _, acc, err := pl.PlanModels(context.Background(), models, 1)
		if err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		last = p
		total.Add(acc)
	}
	if h, m := total.PlanCacheHits, total.PlanCacheMisses; h != 1 || m != 2 {
		t.Fatalf("throttled, nominal, throttled: hits=%d misses=%d, want 1/2 (the revisit hits)", h, m)
	}
	ref := soc.Kirin990()
	if _, err := ref.Apply(throttle); err != nil {
		t.Fatal(err)
	}
	want, _, _, err := newReplanPlanner(t, ref, 0).PlanModels(context.Background(), models, 1)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalPlan(last) != canonicalPlan(want) {
		t.Error("the revisit's hit differs from a fresh planner's plan in the throttled state")
	}
}

// TestPlanCacheInvalidateFlush: InvalidateCache flushes the plan cache;
// degradation events do not — a state change and its return leave the
// window a hit.
func TestPlanCacheInvalidateFlush(t *testing.T) {
	s := soc.Kirin990()
	pl := newCachedPlanner(t, s, 4)
	models := mustModels(t, model.MobileNetV2, model.GoogLeNet)
	var total Account
	// warm plans the window and returns the plan-cache traffic so far.
	warm := func() (hits, misses uint64) {
		t.Helper()
		_, _, acc, err := pl.PlanModels(context.Background(), models, 1)
		if err != nil {
			t.Fatal(err)
		}
		total.Add(acc)
		return total.PlanCacheHits, total.PlanCacheMisses
	}

	warm()                      // miss, populates
	if h, _ := warm(); h != 1 { // hit
		t.Fatalf("warm plan not a hit (hits=%d)", h)
	}

	for _, ev := range []soc.Event{
		{Kind: soc.EventProcessorOffline, Processor: "npu"},
		{Kind: soc.EventProcessorOnline, Processor: "npu"},
	} {
		if _, err := s.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	if h, _ := warm(); h != 2 {
		t.Error("a state change and its return flushed the plan cache")
	}

	pl.InvalidateCache() // full flush
	if _, m := warm(); m != 2 {
		t.Error("InvalidateCache did not flush the plan cache")
	}
	if n := pl.planCache.len(); n != 1 {
		t.Errorf("entries after flush+replan = %d, want 1", n)
	}
}

// TestPlanCacheOrderSensitivity: two permutations of one model multiset are
// distinct planner inputs (candidate orderings and the Order mapping depend
// on window order), so they must occupy distinct cache slots — never serve
// each other's plans.
func TestPlanCacheOrderSensitivity(t *testing.T) {
	pl := newCachedPlanner(t, soc.Kirin990(), 4)
	ab := mustModels(t, model.ResNet50, model.SqueezeNet)
	ba := []*model.Model{ab[1], ab[0]}

	planAB, _, accAB, err := pl.PlanModels(context.Background(), ab, 1)
	if err != nil {
		t.Fatal(err)
	}
	planBA, _, accBA, err := pl.PlanModels(context.Background(), ba, 1)
	if err != nil {
		t.Fatal(err)
	}
	accAB.Add(accBA)
	if h, m := accAB.PlanCacheHits, accAB.PlanCacheMisses; h != 0 || m != 2 {
		t.Fatalf("permuted windows: hits=%d misses=%d, want 0/2 (distinct signatures)", h, m)
	}
	// The permuted window's plan must match a fresh planner's, not the
	// other permutation's cached entry.
	ref, err := NewPlanner(soc.Kirin990(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, _, _, err := ref.PlanModels(context.Background(), ba, 1)
	if err != nil {
		t.Fatal(err)
	}
	if canonicalPlan(planBA) != canonicalPlan(want) {
		t.Error("permuted window served a stale plan")
	}
	_ = planAB
}

// TestDifferentialPlanCacheMatchesUncached: over a randomized sequence of
// recurring windows interleaved with degradation events (applied in lockstep
// to a reference SoC), every plan from the cache-enabled planner must be
// byte-identical to a cache-disabled planner's plan — whether the window was
// a hit or a miss.
func TestDifferentialPlanCacheMatchesUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(20260805))
	names := model.Names()
	socCached := soc.Kirin990()
	socRef := soc.Kirin990()
	cached := newCachedPlanner(t, socCached, 3) // small: eviction in play
	ref, err := NewPlanner(socRef, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	rounds := 16
	if testing.Short() {
		rounds = 6
	}
	npuOffline := false
	var pool [][]*model.Model
	var total Account
	for r := 0; r < rounds; r++ {
		var win []*model.Model
		if len(pool) > 0 && rng.Intn(2) == 0 {
			win = pool[rng.Intn(len(pool))] // replay a window → hit candidate
		} else {
			size := 1 + rng.Intn(3)
			picked := make([]string, size)
			for i := range picked {
				picked[i] = names[rng.Intn(len(names))]
			}
			win = mustModels(t, picked...)
			pool = append(pool, win)
		}
		got, _, acc, err := cached.PlanModels(context.Background(), win, 1)
		if err != nil {
			t.Fatalf("round %d: cached planner: %v", r, err)
		}
		total.Add(acc)
		want, _, _, err := ref.PlanModels(context.Background(), win, 1)
		if err != nil {
			t.Fatalf("round %d: reference planner: %v", r, err)
		}
		if canonicalPlan(got) != canonicalPlan(want) {
			t.Fatalf("round %d: cached plan diverged from uncached reference\n--- cached ---\n%s--- reference ---\n%s",
				r, canonicalPlan(got), canonicalPlan(want))
		}

		if rng.Intn(3) != 0 {
			continue
		}
		// Degrade both SoCs identically (the event mix includes deliberate
		// no-ops, e.g. re-asserting a throttle factor).
		var ev soc.Event
		switch rng.Intn(4) {
		case 0:
			ev = soc.Event{Kind: soc.EventThermalThrottle, Processor: "cpu-big",
				Factor: 1 + 0.5*float64(rng.Intn(3))}
		case 1:
			ev = soc.Event{Kind: soc.EventFrequencyScale, Processor: "gpu",
				Factor: 0.5 + 0.25*float64(rng.Intn(3))}
		case 2:
			ev = soc.Event{Kind: soc.EventBandwidthSqueeze,
				Factor: 0.6 + 0.2*float64(rng.Intn(3))}
		case 3:
			if npuOffline {
				ev = soc.Event{Kind: soc.EventProcessorOnline, Processor: "npu"}
			} else {
				ev = soc.Event{Kind: soc.EventProcessorOffline, Processor: "npu"}
			}
			npuOffline = !npuOffline
		}
		if _, err := socCached.Apply(ev); err != nil {
			t.Fatal(err)
		}
		if _, err := socRef.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	if total.PlanCacheHits == 0 {
		t.Errorf("differential never exercised a plan-cache hit (hits=%d misses=%d)", total.PlanCacheHits, total.PlanCacheMisses)
	}
}

// fuzzModel synthesises a valid chain model deterministically from a seed:
// tensor continuity is enforced by construction, operator kinds stay within
// the NPU-supported set so the whole zoo of processors can take slices.
func fuzzModel(seed uint64, n int) *model.Model {
	rng := rand.New(rand.NewSource(int64(seed)))
	if n < 1 {
		n = 1
	}
	if n > 6 {
		n = 6
	}
	kinds := []model.OpKind{model.OpConv, model.OpPool, model.OpActivation, model.OpFC}
	layers := make([]model.Layer, n)
	in := int64(rng.Intn(1<<16) + 1024)
	first := in
	for i := range layers {
		out := int64(rng.Intn(1<<16) + 512)
		layers[i] = model.Layer{
			Name:            fmt.Sprintf("l%d", i),
			Kind:            kinds[rng.Intn(len(kinds))],
			FLOPs:           float64(rng.Intn(1<<22) + 1000),
			InputBytes:      in,
			OutputBytes:     out,
			WeightBytes:     int64(rng.Intn(1 << 14)),
			WorkingSetBytes: int64(rng.Intn(1 << 14)),
		}
		in = out
	}
	// The name is deliberately constant: digests must discriminate on
	// content alone, making hash collisions the only way two different
	// windows could share a signature.
	return &model.Model{Name: "fuzzmodel", Layers: layers, InputBytes: first}
}

// fuzzOptions derives a planner option permutation from a bitmask, touching
// every field that steers plan content.
func fuzzOptions(bits uint8) Options {
	o := DefaultOptions()
	o.Mitigation = bits&1 != 0
	o.WorkStealing = bits&2 != 0
	o.TailOptimization = bits&4 != 0
	o.ExecOptions.Contention = bits&8 != 0
	if bits&16 != 0 {
		o.HighQuantile = 0.25
	}
	return o
}

// FuzzPlanCacheKey: the canonical signature may only collide when the
// planner inputs are semantically identical. Whenever two fuzz-derived
// windows produce equal signatures, the models must be structurally equal,
// and planning both windows under one fuzzed option set (from fresh
// planners) must yield byte-identical plans. The options are not in the
// signature: a cache belongs to one planner, whose options never change.
// Signature determinism and state separation are asserted on every input.
func FuzzPlanCacheKey(f *testing.F) {
	f.Add(uint64(1), uint64(1), uint8(1), uint8(1), uint8(0))
	f.Add(uint64(1), uint64(2), uint8(3), uint8(3), uint8(0))
	f.Add(uint64(7), uint64(7), uint8(4), uint8(4), uint8(31))
	f.Add(uint64(9), uint64(9), uint8(2), uint8(2), uint8(1))
	f.Fuzz(func(t *testing.T, seedA, seedB uint64, nA, nB, bits uint8) {
		winA := []*model.Model{fuzzModel(seedA, int(nA%6)+1)}
		winB := []*model.Model{fuzzModel(seedB, int(nB%6)+1)}
		for _, m := range [...]*model.Model{winA[0], winB[0]} {
			if err := m.Validate(); err != nil {
				t.Fatalf("fuzzModel produced an invalid model: %v", err)
			}
		}
		nominal := soc.Kirin990()
		sigA := string(planSignature(nominal, winA))
		sigB := string(planSignature(nominal, winB))

		// Determinism: recomputing a signature from the same inputs must
		// reproduce it exactly.
		if again := string(planSignature(nominal, winA)); again != sigA {
			t.Fatalf("signature not deterministic: %q vs %q", sigA, again)
		}
		// State separation: the same window in another SoC state never
		// matches.
		throttled := soc.Kirin990()
		if _, err := throttled.Apply(soc.Event{Kind: soc.EventThermalThrottle, Processor: "gpu", Factor: 1.5}); err != nil {
			t.Fatal(err)
		}
		if other := string(planSignature(throttled, winA)); other == sigA {
			t.Fatalf("a state change did not change the signature %q", sigA)
		}
		if sigA != sigB {
			return
		}
		// Equal signatures ⇒ semantically identical planner inputs.
		if !slices.EqualFunc(winA, winB, sameModel) {
			t.Fatalf("signature %q collides across structurally different windows (digest collision)", sigA)
		}
		// Cross-check: planning both windows yields byte-identical plans.
		// Parallelism is pinned so the comparison isolates the inputs.
		opts := fuzzOptions(bits)
		opts.Parallelism = 1
		plA, err := NewPlanner(soc.Kirin990(), opts)
		if err != nil {
			t.Fatal(err)
		}
		plB, err := NewPlanner(soc.Kirin990(), opts)
		if err != nil {
			t.Fatal(err)
		}
		planA, _, _, err := plA.PlanModels(context.Background(), winA, 1)
		if err != nil {
			t.Fatalf("planning window A: %v", err)
		}
		planB, _, _, err := plB.PlanModels(context.Background(), winB, 1)
		if err != nil {
			t.Fatalf("planning window B: %v", err)
		}
		if canonicalPlan(planA) != canonicalPlan(planB) {
			t.Fatalf("equal signatures, different plans:\n--- A ---\n%s--- B ---\n%s",
				canonicalPlan(planA), canonicalPlan(planB))
		}
	})
}

// TestPlanCacheHitAllocBudget pins the allocations of a plan-cache hit on
// Kirin 990. The signature is built in one buffer with each model digest
// appended in place, and the lookup reads the buffer without copying it; a
// rebuilt plan holds only its schedule, ordering, classes and
// intensities. Each budget is the measured count. The unbatched model
// entry points also build the window's singleton groups; their budgets add
// those groups' allocations (1 + one per request). The two maxBatch-32
// budgets are the counts with the batched variants and batch curves kept
// on the cost-cache entries: a window of distinct models, whose light
// requests each plan alone (eight groups), and a window whose light
// classes batch 6× and 3× (four groups).
func TestPlanCacheHitAllocBudget(t *testing.T) {
	ctx := context.Background()
	pl := newCachedPlanner(t, soc.Kirin990(), 8)
	win := mustModels(t, model.YOLOv4, model.SqueezeNet, model.BERT, model.ResNet50)
	batched := mustModels(t, model.YOLOv4, model.FaceNet, model.AgeGenderNet, model.ViT,
		model.GPT2Decoder, model.BERT, model.MobileNetV2, model.SqueezeNet)
	frames := mustModels(t, model.VGG16,
		model.SqueezeNet, model.MobileNetV2, model.SqueezeNet, model.SqueezeNet, model.MobileNetV2,
		model.SqueezeNet, model.SqueezeNet, model.MobileNetV2, model.SqueezeNet, model.GoogLeNet)
	_, profiles, err := pl.groupProfiles(ctx, win, 1, new(Account))
	if err != nil {
		t.Fatal(err)
	}
	if g := pl.coalesceLight(frames, 32); len(g) != 4 {
		t.Fatalf("frames window groups %s, want its light classes batched", describeGroups(g))
	}
	groups := 1 + float64(len(win))
	for _, c := range []struct {
		name   string
		budget float64
		plan   func() (Account, error)
	}{
		{"PlanModels", 9 + groups, func() (Account, error) {
			_, _, acc, err := pl.PlanModels(ctx, win, 1)
			return acc, err
		}},
		{"PlanFrontierModels", 18 + groups, func() (Account, error) {
			_, _, acc, err := pl.PlanFrontierModels(ctx, win, 1)
			return acc, err
		}},
		{"PlanProfiles", 10, func() (Account, error) {
			_, acc, err := pl.PlanProfiles(ctx, profiles)
			return acc, err
		}},
		{"PlanFrontierProfiles", 20, func() (Account, error) {
			_, acc, err := pl.PlanFrontierProfiles(ctx, profiles)
			return acc, err
		}},
		{"PlanModels/maxBatch=32", 16, func() (Account, error) {
			_, _, acc, err := pl.PlanModels(ctx, batched, 32)
			return acc, err
		}},
		{"PlanModels/maxBatch=32/batches", 16, func() (Account, error) {
			_, _, acc, err := pl.PlanModels(ctx, frames, 32)
			return acc, err
		}},
	} {
		if _, err := c.plan(); err != nil { // fill the entry
			t.Fatalf("%s: %v", c.name, err)
		}
		var hits uint64
		avg := testing.AllocsPerRun(50, func() {
			acc, err := c.plan()
			if err != nil {
				t.Fatal(err)
			}
			hits += acc.PlanCacheHits
		})
		if hits != 51 {
			t.Fatalf("%s: %d of 51 calls hit the plan cache", c.name, hits)
		}
		t.Logf("%s hit: %.0f allocs (budget %.0f)", c.name, avg, c.budget)
		if avg > c.budget {
			t.Errorf("%s hit allocates %.0f/op, budget %.0f", c.name, avg, c.budget)
		}
	}
}
