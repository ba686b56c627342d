package core

import (
	"context"
	"reflect"
	"sync"
	"testing"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// TestCostCacheHitMatchesColdCompute walks the zoo × presets × batch
// cross-product: for every combination the cached tables must be deeply
// identical to a cold profile.New, the second lookup must be a hit, and
// hits must return the same shared Profile instance.
func TestCostCacheHitMatchesColdCompute(t *testing.T) {
	batches := []int{1, 4}
	for _, s := range soc.AllPresets() {
		pl, err := NewPlanner(s, DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", s.Name, err)
		}
		for _, name := range model.Names() {
			for _, batch := range batches {
				m := model.Batched(model.MustByName(name), batch)

				cold, err := profile.New(s, m)
				if err != nil {
					t.Fatalf("%s/%s: cold profile: %v", s.Name, m.Name, err)
				}
				h0, m0 := pl.CacheStats()
				first, err := pl.Profile(m)
				if err != nil {
					t.Fatalf("%s/%s: cached profile: %v", s.Name, m.Name, err)
				}
				h1, m1 := pl.CacheStats()
				if h1 != h0 || m1 != m0+1 {
					t.Fatalf("%s/%s: first lookup counted hits %d→%d misses %d→%d, want one miss",
						s.Name, m.Name, h0, h1, m0, m1)
				}
				second, err := pl.Profile(m)
				if err != nil {
					t.Fatalf("%s/%s: second lookup: %v", s.Name, m.Name, err)
				}
				h2, m2 := pl.CacheStats()
				if h2 != h1+1 || m2 != m1 {
					t.Fatalf("%s/%s: second lookup counted hits %d→%d misses %d→%d, want one hit",
						s.Name, m.Name, h1, h2, m1, m2)
				}
				if second != first {
					t.Fatalf("%s/%s: hit returned a different Profile instance", s.Name, m.Name)
				}
				if !reflect.DeepEqual(first, cold) {
					t.Fatalf("%s/%s: cached tables differ from cold compute", s.Name, m.Name)
				}
			}
		}
	}
}

// TestCostCacheStructuralCollision: two different models sharing a cache
// key (same name, same layer count) must never be served each other's
// tables.
func TestCostCacheStructuralCollision(t *testing.T) {
	s := soc.Kirin990()
	pl, err := NewPlanner(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	a := model.MustByName(model.SqueezeNet)
	b := a.Clone()
	for i := range b.Layers {
		// Same name, same shape, drastically different compute cost — large
		// enough that even memory-bound layers flip compute-bound.
		b.Layers[i].FLOPs *= 1000
	}
	pa, err := pl.Profile(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := pl.Profile(b)
	if err != nil {
		t.Fatal(err)
	}
	if pa == pb {
		t.Fatal("structurally different models shared one cache entry")
	}
	n := a.NumLayers()
	if pa.ExecTime(0, 0, n-1) == pb.ExecTime(0, 0, n-1) {
		t.Fatal("collision returned identical exec times for different cost structures")
	}
	// And the colliding model must itself be served correct tables again.
	cold, err := profile.New(s, b)
	if err != nil {
		t.Fatal(err)
	}
	again, err := pl.Profile(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, cold) {
		t.Fatal("post-collision lookup returned stale tables")
	}
}

// TestCostCacheInvalidate: InvalidateCache forces re-measurement.
func TestCostCacheInvalidate(t *testing.T) {
	s := soc.Kirin990()
	pl, err := NewPlanner(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	m := model.MustByName(model.ResNet50)
	if _, err := pl.Profile(m); err != nil {
		t.Fatal(err)
	}
	pl.InvalidateCache()
	_, m0 := pl.CacheStats()
	if _, err := pl.Profile(m); err != nil {
		t.Fatal(err)
	}
	if _, m1 := pl.CacheStats(); m1 != m0+1 {
		t.Fatalf("lookup after invalidation counted %d misses, want %d", m1, m0+1)
	}
}

// TestCostCachePartialInvalidation: after a throttle event on one
// processor, only that processor's tables are re-measured — cached cost
// tables for unaffected (model, processor) pairs survive, report hits via
// CacheStats, and are shared by pointer with the rebuilt profiles, while
// the throttled processor's slice times reflect the event.
func TestCostCachePartialInvalidation(t *testing.T) {
	s := soc.Kirin990()
	pl, err := NewPlanner(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	models := mustModels(t, model.ResNet50, model.SqueezeNet, model.MobileNetV2)
	warm := make([]*profile.Profile, len(models))
	for i, m := range models {
		if warm[i], err = pl.Profile(m); err != nil {
			t.Fatal(err)
		}
	}
	h0, m0 := pl.CacheStats()

	// Throttle the GPU 2× and invalidate exactly the affected set.
	affected, err := s.Apply(soc.Event{Kind: soc.EventThermalThrottle, Processor: "gpu", Factor: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) != 1 {
		t.Fatalf("throttle affected %v, want one processor", affected)
	}
	gpu := affected[0]
	pl.InvalidateProcessors(affected...)

	for i, m := range models {
		fresh, err := pl.Profile(m)
		if err != nil {
			t.Fatal(err)
		}
		if fresh == warm[i] {
			t.Fatalf("%s: invalidated profile instance reused", m.Name)
		}
		n := m.NumLayers()
		for k := 0; k < fresh.NumProcessors(); k++ {
			if k == gpu {
				if fresh.Table(k) == warm[i].Table(k) {
					t.Errorf("%s: throttled processor %d table not re-measured", m.Name, k)
				}
				old, now := warm[i].ExecTime(k, 0, n-1), fresh.ExecTime(k, 0, n-1)
				if now <= old {
					t.Errorf("%s: throttled exec time %v not above nominal %v", m.Name, now, old)
				}
				continue
			}
			// Unaffected pair: the very same table instance survives.
			if fresh.Table(k) != warm[i].Table(k) {
				t.Errorf("%s: unaffected processor %d table re-measured", m.Name, k)
			}
		}
	}
	h1, m1 := pl.CacheStats()
	if hits := h1 - h0; hits != uint64(len(models)) {
		t.Errorf("post-event lookups counted %d hits, want %d (unaffected tables reused)", hits, len(models))
	}
	if misses := m1 - m0; misses != uint64(len(models)) {
		t.Errorf("post-event lookups counted %d misses, want %d (one stale table each)", misses, len(models))
	}

	// Fully warm again: pure hits, same instances.
	for _, m := range models {
		if _, err := pl.Profile(m); err != nil {
			t.Fatal(err)
		}
	}
	h2, m2 := pl.CacheStats()
	if h2 != h1+uint64(len(models)) || m2 != m1 {
		t.Errorf("re-warmed lookups: hits %d→%d misses %d→%d, want pure hits", h1, h2, m1, m2)
	}

	// Invalidating an already-stale or out-of-range index is a no-op.
	pl.InvalidateProcessors()
	pl.InvalidateProcessors(-1, 99)
	if _, err := pl.Profile(models[0]); err != nil {
		t.Fatal(err)
	}
	if h3, m3 := pl.CacheStats(); h3 != h2+1 || m3 != m2 {
		t.Errorf("no-op invalidation caused re-measurement: hits %d→%d misses %d→%d", h2, h3, m2, m3)
	}
}

// TestCostCacheNominalRestore pins the restore rule: an event that returns
// the SoC to its nominal state hands each entry back the profile, DP rows
// and batch curve it held before the SoC left that state, and the next
// lookup counts one hit and no miss. An entry first created during the
// episode, and every entry after InvalidateCache, holds nothing to restore
// and re-measures.
func TestCostCacheNominalRestore(t *testing.T) {
	s := soc.Kirin990()
	pl, err := NewPlanner(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	apply := func(ev soc.Event) {
		t.Helper()
		affected, err := s.Apply(ev)
		if err != nil {
			t.Fatal(err)
		}
		pl.InvalidateProcessors(affected...)
	}
	ref := s.Processors[referenceIndex(s)].ID
	throttle := soc.Event{Kind: soc.EventThermalThrottle, Processor: ref, Factor: 1.5}
	clear := soc.Event{Kind: soc.EventThermalThrottle, Processor: ref, Factor: 1}
	lookup := func(m *model.Model) (p *profile.Profile, hits, misses uint64) {
		t.Helper()
		h0, m0 := pl.CacheStats()
		p, err := pl.Profile(m)
		if err != nil {
			t.Fatal(err)
		}
		h1, m1 := pl.CacheStats()
		return p, h1 - h0, m1 - m0
	}

	held, late := model.MustByName(model.SqueezeNet), model.MustByName(model.MobileNetV2)
	if _, _, err := pl.PlanModels(context.Background(), []*model.Model{held}, 1); err != nil {
		t.Fatal(err)
	}
	pl.cache.batchCurve(s, held)
	e := pl.cache.entries[cacheKey(held)]
	before := e.tableState
	if before.assembled == nil || before.dp.stages() != s.NumProcessors() || before.curve == nil {
		t.Fatalf("warm entry holds profile %v, %d DP rows, curve %v", before.assembled, before.dp.stages(), before.curve)
	}

	apply(throttle)
	if p, hits, misses := lookup(held); p == before.assembled || hits != 1 || misses != 1 {
		t.Fatalf("throttled lookup: same profile %t, %d hits, %d misses; want a re-assembly, 1 and 1", p == before.assembled, hits, misses)
	}
	pl.cache.batchCurve(s, held)
	lookup(late)

	apply(clear)
	if p, hits, misses := lookup(held); p != before.assembled || hits != 1 || misses != 0 {
		t.Errorf("lookup after the return: same profile %t, %d hits, %d misses; want the pre-episode profile, 1 and 0", p == before.assembled, hits, misses)
	}
	if e.dp != before.dp || e.curve != before.curve || e.nominal != nil {
		t.Error("the return did not restore the pre-episode DP rows and batch curve, or kept them aside")
	}
	if _, hits, misses := lookup(late); hits != 1 || misses != 1 {
		t.Errorf("entry created during the episode: %d hits, %d misses after the return, want 1 and 1", hits, misses)
	}

	apply(throttle)
	pl.InvalidateCache()
	apply(clear)
	if p, hits, misses := lookup(held); p == before.assembled || hits != 0 || misses != 1 {
		t.Errorf("lookup after InvalidateCache and a return: same profile %t, %d hits, %d misses; want a cold measurement", p == before.assembled, hits, misses)
	}
}

// TestCostCacheSharedAcrossPlans: repeated PlanModels calls on one planner
// hit the cache for every model after the first plan.
func TestCostCacheSharedAcrossPlans(t *testing.T) {
	s := soc.Kirin990()
	pl, err := NewPlanner(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	models := mustModels(t, model.ResNet50, model.SqueezeNet, model.MobileNetV2)
	if _, _, err := pl.PlanModels(context.Background(), models, 1); err != nil {
		t.Fatal(err)
	}
	h0, m0 := pl.CacheStats()
	if m0 != uint64(len(models)) {
		t.Fatalf("first plan measured %d models, want %d", m0, len(models))
	}
	if _, _, err := pl.PlanModels(context.Background(), models, 1); err != nil {
		t.Fatal(err)
	}
	h1, m1 := pl.CacheStats()
	if m1 != m0 {
		t.Fatalf("second plan re-measured models: misses %d → %d", m0, m1)
	}
	if h1 != h0+uint64(len(models)) {
		t.Fatalf("second plan counted %d hits, want %d", h1-h0, len(models))
	}
}

// TestCostCacheConcurrentBatching plans one batching window from eight
// goroutines at once on a cold planner, so they race to measure the same
// batch curves and mint the same variants on shared cost-cache entries.
// Every caller must receive the same plan, and the same group models by
// pointer: the first variant stored is the one every later caller plans.
// Under -race this also checks the entries' batching state is guarded.
func TestCostCacheConcurrentBatching(t *testing.T) {
	pl := mustPlanner(t, soc.Kirin990(), DefaultOptions())
	window := modelsOf(model.VGG16,
		model.SqueezeNet, model.MobileNetV2, model.SqueezeNet, model.SqueezeNet, model.MobileNetV2,
		model.SqueezeNet, model.SqueezeNet, model.MobileNetV2, model.SqueezeNet, model.GoogLeNet)
	const callers = 8
	plans := make([]string, callers)
	groups := make([][]BatchGroup, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var p *Plan
			p, groups[i], errs[i] = pl.PlanModels(context.Background(), window, 32)
			if errs[i] == nil {
				plans[i] = canonicalPlan(p)
			}
		}(i)
	}
	wg.Wait()
	for i := 0; i < callers; i++ {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if plans[i] != plans[0] {
			t.Fatalf("caller %d planned differently from caller 0", i)
		}
		if len(groups[i]) != len(groups[0]) {
			t.Fatalf("caller %d: %d groups, caller 0 %d", i, len(groups[i]), len(groups[0]))
		}
		for g := range groups[i] {
			if groups[i][g].Model != groups[0][g].Model {
				t.Fatalf("caller %d group %d plans its own copy of %s", i, g, groups[i][g].Model.Name)
			}
		}
	}
	if got := pl.coalesceLight(window, 32); len(got) != len(groups[0]) || len(got) == len(window) {
		t.Fatalf("window groups %s, want its light classes batched", describeGroups(got))
	}
}
