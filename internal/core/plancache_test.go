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

	first, _, err := pl.PlanModels(context.Background(), models, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := pl.PlanCacheStats(); h != 0 || m != 1 {
		t.Fatalf("after cold plan: hits=%d misses=%d, want 0/1", h, m)
	}
	cells := pl.DPCells()
	second, _, err := pl.PlanModels(context.Background(), models, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := pl.PlanCacheStats(); h != 1 || m != 1 {
		t.Fatalf("after warm plan: hits=%d misses=%d, want 1/1", h, m)
	}
	if got := pl.DPCells(); got != cells {
		t.Errorf("cache hit still evaluated DP cells: %d → %d", cells, got)
	}
	if canonicalPlan(second) != canonicalPlan(first) {
		t.Error("cached plan differs from the plan that populated it")
	}

	ref, err := NewPlanner(soc.Kirin990(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ref.PlanModels(context.Background(), models, 1)
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
		if _, _, err := pl.PlanModels(context.Background(), win, 1); err != nil {
			t.Fatal(err)
		}
	}
	if n := pl.planCache.len(); n != 2 {
		t.Fatalf("entries = %d, want 2", n)
	}
	// Touch A so B becomes least-recently-used, then insert C.
	if _, _, err := pl.PlanModels(context.Background(), winA, 1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pl.PlanModels(context.Background(), winC, 1); err != nil {
		t.Fatal(err)
	}
	if n := pl.planCache.len(); n != 2 {
		t.Fatalf("entries after eviction = %d, want 2", n)
	}
	hits0, misses0 := pl.PlanCacheStats()
	if _, _, err := pl.PlanModels(context.Background(), winA, 1); err != nil { // survived (recently used)
		t.Fatal(err)
	}
	if h, m := pl.PlanCacheStats(); h != hits0+1 || m != misses0 {
		t.Errorf("replanning the recently-used window: hits %d→%d misses %d→%d, want a pure hit",
			hits0, h, misses0, m)
	}
	if _, _, err := pl.PlanModels(context.Background(), winB, 1); err != nil { // evicted
		t.Fatal(err)
	}
	if _, m := pl.PlanCacheStats(); m != misses0+1 {
		t.Errorf("replanning the evicted window was not a miss (misses %d→%d)", misses0, m)
	}
}

// TestPlanCacheDeepCopyOnHit: callers own their plans outright — mutating a
// returned plan (slices and schedule rows alike) must not leak into the
// cache's copy.
func TestPlanCacheDeepCopyOnHit(t *testing.T) {
	models := mustModels(t, model.ResNet50, model.GoogLeNet)
	pl := newCachedPlanner(t, soc.Kirin990(), 4)
	first, _, err := pl.PlanModels(context.Background(), models, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := canonicalPlan(first)

	vandalise := func(p *Plan) {
		p.Order[0] = 999
		p.Classes[0]++
		p.Intensities[0] = -1
		p.HorizontalMakespans[0] = -1
		p.Cuts[0][0] = 999
		p.Schedule.Stages[0][0].From = 999
	}
	vandalise(first) // mutate the plan that seeded the cache

	second, _, err := pl.PlanModels(context.Background(), models, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalPlan(second); got != want {
		t.Fatalf("mutating the seeding plan corrupted the cache:\nwant %s\ngot %s", want, got)
	}
	vandalise(second) // mutate a hit-served plan

	third, _, err := pl.PlanModels(context.Background(), models, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := canonicalPlan(third); got != want {
		t.Fatalf("mutating a hit-served plan corrupted the cache:\nwant %s\ngot %s", want, got)
	}
}

// TestPlanCacheEpochInvalidation: a state-changing degradation event bumps
// the SoC epoch, so the next identical window misses and replans on the
// degraded tables — while a no-op event leaves the epoch (and the hit
// stream) untouched.
func TestPlanCacheEpochInvalidation(t *testing.T) {
	s := soc.Kirin990()
	pl := newCachedPlanner(t, s, 4)
	models := mustModels(t, model.ResNet50, model.SqueezeNet)
	if _, _, err := pl.PlanModels(context.Background(), models, 1); err != nil {
		t.Fatal(err)
	}

	// No-op event first: restating the online NPU changes nothing.
	affected, err := s.Apply(soc.Event{Kind: soc.EventProcessorOnline, Processor: "npu"})
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) != 0 {
		t.Fatalf("no-op event staled processors %v", affected)
	}
	pl.InvalidateProcessors(affected...)
	if _, _, err := pl.PlanModels(context.Background(), models, 1); err != nil {
		t.Fatal(err)
	}
	if h, m := pl.PlanCacheStats(); h != 1 || m != 1 {
		t.Fatalf("after no-op event: hits=%d misses=%d, want 1/1 (still a hit)", h, m)
	}

	// Real throttle: epoch bump retires the signature.
	affected, err = s.Apply(soc.Event{Kind: soc.EventThermalThrottle, Processor: "cpu-big", Factor: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	pl.InvalidateProcessors(affected...)
	degraded, _, err := pl.PlanModels(context.Background(), models, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := pl.PlanCacheStats(); h != 1 || m != 2 {
		t.Fatalf("after throttle: hits=%d misses=%d, want 1/2 (a miss)", h, m)
	}

	// A bus squeeze stales no cost tables but still changes plans: it must
	// bump the epoch and force a miss too.
	if _, err := s.Apply(soc.Event{Kind: soc.EventBandwidthSqueeze, Factor: 0.6}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := pl.PlanModels(context.Background(), models, 1); err != nil {
		t.Fatal(err)
	}
	if h, m := pl.PlanCacheStats(); h != 1 || m != 3 {
		t.Fatalf("after bus squeeze: hits=%d misses=%d, want 1/3 (a miss)", h, m)
	}
	_ = degraded
}

// TestPlanCacheInvalidateFlush: InvalidateCache and a non-empty
// InvalidateProcessors flush the plan cache; the empty processor set (a
// no-op degradation event) must not.
func TestPlanCacheInvalidateFlush(t *testing.T) {
	pl := newCachedPlanner(t, soc.Kirin990(), 4)
	models := mustModels(t, model.MobileNetV2, model.GoogLeNet)
	warm := func() (hits, misses uint64) {
		t.Helper()
		if _, _, err := pl.PlanModels(context.Background(), models, 1); err != nil {
			t.Fatal(err)
		}
		return pl.PlanCacheStats()
	}

	warm()                      // miss, populates
	if h, _ := warm(); h != 1 { // hit
		t.Fatalf("warm plan not a hit (hits=%d)", h)
	}

	pl.InvalidateProcessors() // empty set: must NOT flush
	if h, _ := warm(); h != 2 {
		t.Error("empty InvalidateProcessors flushed the plan cache")
	}

	pl.InvalidateProcessors(0) // non-empty: flushes
	if _, m := warm(); m != 2 {
		t.Error("InvalidateProcessors(0) did not flush the plan cache")
	}

	pl.InvalidateCache() // full flush
	if _, m := warm(); m != 3 {
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

	planAB, _, err := pl.PlanModels(context.Background(), ab, 1)
	if err != nil {
		t.Fatal(err)
	}
	planBA, _, err := pl.PlanModels(context.Background(), ba, 1)
	if err != nil {
		t.Fatal(err)
	}
	if h, m := pl.PlanCacheStats(); h != 0 || m != 2 {
		t.Fatalf("permuted windows: hits=%d misses=%d, want 0/2 (distinct signatures)", h, m)
	}
	// The permuted window's plan must match a fresh planner's, not the
	// other permutation's cached entry.
	ref, err := NewPlanner(soc.Kirin990(), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ref.PlanModels(context.Background(), ba, 1)
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
		got, _, err := cached.PlanModels(context.Background(), win, 1)
		if err != nil {
			t.Fatalf("round %d: cached planner: %v", r, err)
		}
		want, _, err := ref.PlanModels(context.Background(), win, 1)
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
		affC, err := socCached.Apply(ev)
		if err != nil {
			t.Fatal(err)
		}
		cached.InvalidateProcessors(affC...)
		affR, err := socRef.Apply(ev)
		if err != nil {
			t.Fatal(err)
		}
		ref.InvalidateProcessors(affR...)
	}
	hits, misses := cached.PlanCacheStats()
	if hits == 0 {
		t.Errorf("differential never exercised a plan-cache hit (hits=%d misses=%d)", hits, misses)
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
// exactly the fields the fingerprint covers.
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
// windows produce equal signatures, the models must be structurally equal
// and the options fingerprints byte-equal — and planning both windows (from
// fresh planners) must yield byte-identical plans. Signature determinism is
// asserted on every input.
func FuzzPlanCacheKey(f *testing.F) {
	f.Add(uint64(1), uint64(1), uint8(1), uint8(1), uint8(0), uint8(0))
	f.Add(uint64(1), uint64(2), uint8(3), uint8(3), uint8(0), uint8(0))
	f.Add(uint64(7), uint64(7), uint8(4), uint8(4), uint8(31), uint8(31))
	f.Add(uint64(9), uint64(9), uint8(2), uint8(2), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seedA, seedB uint64, nA, nB, bitsA, bitsB uint8) {
		winA := []*model.Model{fuzzModel(seedA, int(nA%6)+1)}
		winB := []*model.Model{fuzzModel(seedB, int(nB%6)+1)}
		for _, m := range [...]*model.Model{winA[0], winB[0]} {
			if err := m.Validate(); err != nil {
				t.Fatalf("fuzzModel produced an invalid model: %v", err)
			}
		}
		optsA, optsB := fuzzOptions(bitsA), fuzzOptions(bitsB)
		fpA, fpB := optionsFingerprint(optsA), optionsFingerprint(optsB)
		sigA := planSignature(0, fpA, winA)
		sigB := planSignature(0, fpB, winB)

		// Determinism: recomputing a signature from the same inputs must
		// reproduce it exactly.
		if again := planSignature(0, fpA, winA); again != sigA {
			t.Fatalf("signature not deterministic: %q vs %q", sigA, again)
		}
		// Epoch separation: the same window at a later epoch never matches.
		if bumped := planSignature(1, fpA, winA); bumped == sigA {
			t.Fatalf("epoch bump did not change the signature %q", sigA)
		}
		if sigA != sigB {
			return
		}
		// Equal signatures ⇒ semantically identical planner inputs.
		if fpA != fpB {
			t.Fatalf("signatures collide across option fingerprints %q vs %q", fpA, fpB)
		}
		if !slices.EqualFunc(winA, winB, sameModel) {
			t.Fatalf("signature %q collides across structurally different windows (digest collision)", sigA)
		}
		// Cross-check: planning both windows yields byte-identical plans.
		// Parallelism is pinned so the comparison isolates the inputs.
		optsA.Parallelism, optsB.Parallelism = 1, 1
		plA, err := NewPlanner(soc.Kirin990(), optsA)
		if err != nil {
			t.Fatal(err)
		}
		plB, err := NewPlanner(soc.Kirin990(), optsB)
		if err != nil {
			t.Fatal(err)
		}
		planA, _, err := plA.PlanModels(context.Background(), winA, 1)
		if err != nil {
			t.Fatalf("planning window A: %v", err)
		}
		planB, _, err := plB.PlanModels(context.Background(), winB, 1)
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
// Kirin 990 to the counts of the planner before one entry served both
// objectives. The unbatched model entry points also build the window's
// singleton groups, which the stream scheduler used to build itself; their
// budgets add those groups' allocations (1 + one per request). The two
// maxBatch-32 budgets are the counts with the batched variants and batch
// curves kept on the cost-cache entries: a window of distinct models, whose
// light requests each plan alone (59 allocations when every window minted
// fresh copies), and a window whose light classes batch 6× and 3× (42).
func TestPlanCacheHitAllocBudget(t *testing.T) {
	ctx := context.Background()
	pl := newCachedPlanner(t, soc.Kirin990(), 8)
	win := mustModels(t, model.YOLOv4, model.SqueezeNet, model.BERT, model.ResNet50)
	batched := mustModels(t, model.YOLOv4, model.FaceNet, model.AgeGenderNet, model.ViT,
		model.GPT2Decoder, model.BERT, model.MobileNetV2, model.SqueezeNet)
	frames := mustModels(t, model.VGG16,
		model.SqueezeNet, model.MobileNetV2, model.SqueezeNet, model.SqueezeNet, model.MobileNetV2,
		model.SqueezeNet, model.SqueezeNet, model.MobileNetV2, model.SqueezeNet, model.GoogLeNet)
	_, profiles, err := pl.groupProfiles(ctx, win, 1)
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
		plan   func() error
	}{
		{"PlanModels", 28 + groups, func() error {
			_, _, err := pl.PlanModels(ctx, win, 1)
			return err
		}},
		{"PlanFrontierModels", 44 + groups, func() error {
			_, _, err := pl.PlanFrontierModels(ctx, win, 1)
			return err
		}},
		{"PlanProfiles", 20, func() error {
			_, err := pl.PlanProfiles(ctx, profiles)
			return err
		}},
		{"PlanFrontierProfiles", 36, func() error {
			_, err := pl.PlanFrontierProfiles(ctx, profiles)
			return err
		}},
		{"PlanModels/maxBatch=32", 27, func() error {
			_, _, err := pl.PlanModels(ctx, batched, 32)
			return err
		}},
		{"PlanModels/maxBatch=32/batches", 23, func() error {
			_, _, err := pl.PlanModels(ctx, frames, 32)
			return err
		}},
	} {
		if err := c.plan(); err != nil { // fill the entry
			t.Fatalf("%s: %v", c.name, err)
		}
		hits, _ := pl.PlanCacheStats()
		avg := testing.AllocsPerRun(50, func() {
			if err := c.plan(); err != nil {
				t.Fatal(err)
			}
		})
		if h, _ := pl.PlanCacheStats(); h != hits+51 {
			t.Fatalf("%s: %d of 51 calls hit the plan cache", c.name, h-hits)
		}
		t.Logf("%s hit: %.0f allocs (budget %.0f)", c.name, avg, c.budget)
		if avg > c.budget {
			t.Errorf("%s hit allocates %.0f/op, budget %.0f", c.name, avg, c.budget)
		}
	}
}
