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

// lookupProfile looks m up in pl's cost cache, as Profile does, and returns
// the lookup's own account.
func lookupProfile(t *testing.T, pl *Planner, m *model.Model) (*profile.Profile, Account) {
	t.Helper()
	var acc Account
	p, err := pl.cache.profile(m, &acc)
	if err != nil {
		t.Fatalf("%s: cached profile: %v", m.Name, err)
	}
	return p, acc
}

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
				first, acc := lookupProfile(t, pl, m)
				if acc.CacheHits != 0 || acc.CacheMisses != 1 {
					t.Fatalf("%s/%s: first lookup counted %d hits and %d misses, want one miss",
						s.Name, m.Name, acc.CacheHits, acc.CacheMisses)
				}
				second, acc := lookupProfile(t, pl, m)
				if acc.CacheHits != 1 || acc.CacheMisses != 0 {
					t.Fatalf("%s/%s: second lookup counted %d hits and %d misses, want one hit",
						s.Name, m.Name, acc.CacheHits, acc.CacheMisses)
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
	if _, acc := lookupProfile(t, pl, m); acc.CacheMisses != 1 {
		t.Fatalf("lookup after invalidation counted %d misses, want 1", acc.CacheMisses)
	}
}

// TestCostCachePartialInvalidation: after a throttle event on one
// processor, only that processor's tables are re-measured — cached cost
// tables for unaffected (model, processor) pairs are borrowed, count as hits
// in the lookups' accounts, and are shared by pointer with the new state's profiles,
// while the throttled processor's slice times reflect the event.
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

	// Throttle the GPU 2×: nothing is invalidated, the next lookups land in
	// a new state.
	throttle := soc.Event{Kind: soc.EventThermalThrottle, Processor: "gpu", Factor: 2}
	affected, err := s.Apply(throttle)
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) != 1 {
		t.Fatalf("throttle affected %v, want one processor", affected)
	}
	gpu := affected[0]

	var post Account
	for i, m := range models {
		fresh, acc := lookupProfile(t, pl, m)
		post.Add(acc)
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
	if post.CacheHits != uint64(len(models)) {
		t.Errorf("post-event lookups counted %d hits, want %d (unaffected tables reused)", post.CacheHits, len(models))
	}
	if post.CacheMisses != uint64(len(models)) {
		t.Errorf("post-event lookups counted %d misses, want %d (one stale table each)", post.CacheMisses, len(models))
	}

	// Fully warm again: pure hits, same instances.
	var rewarm Account
	for _, m := range models {
		_, acc := lookupProfile(t, pl, m)
		rewarm.Add(acc)
	}
	if rewarm.CacheHits != uint64(len(models)) || rewarm.CacheMisses != 0 {
		t.Errorf("re-warmed lookups: %d hits and %d misses, want %d pure hits", rewarm.CacheHits, rewarm.CacheMisses, len(models))
	}

	// A no-op event (the throttle restated) keeps the state: pure hits.
	if affected, err := s.Apply(throttle); err != nil || len(affected) != 0 {
		t.Fatalf("restated throttle: affected %v, err %v", affected, err)
	}
	if _, acc := lookupProfile(t, pl, models[0]); acc.CacheHits != 1 || acc.CacheMisses != 0 {
		t.Errorf("no-op event caused re-measurement: %d hits and %d misses, want one hit", acc.CacheHits, acc.CacheMisses)
	}
}

// TestCostCacheNominalRestore pins the return to a held state as a case of
// the keyed lookup: an event that brings the SoC back to the nominal state
// finds the entry's nominal table state — the profile, DP rows and batch
// curve from before the episode — and the lookup counts one hit and no
// miss; so does a return to the throttled state. An entry first created
// during the episode holds no nominal state: it borrows the tables of the
// processors whose state matches and re-measures the rest. After
// InvalidateCache every lookup is cold.
func TestCostCacheNominalRestore(t *testing.T) {
	s := soc.Kirin990()
	pl, err := NewPlanner(s, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	apply := func(ev soc.Event) {
		t.Helper()
		if _, err := s.Apply(ev); err != nil {
			t.Fatal(err)
		}
	}
	ref := s.Processors[referenceIndex(s)].ID
	throttle := soc.Event{Kind: soc.EventThermalThrottle, Processor: ref, Factor: 1.5}
	clear := soc.Event{Kind: soc.EventThermalThrottle, Processor: ref, Factor: 1}
	lookup := func(m *model.Model) (p *profile.Profile, hits, misses uint64) {
		t.Helper()
		p, acc := lookupProfile(t, pl, m)
		return p, acc.CacheHits, acc.CacheMisses
	}

	held, late := model.MustByName(model.SqueezeNet), model.MustByName(model.MobileNetV2)
	if _, _, _, err := pl.PlanModels(context.Background(), []*model.Model{held}, 1); err != nil {
		t.Fatal(err)
	}
	pl.cache.batchCurve(held)
	e := pl.cache.entries[cacheKey(held)]
	before := *e.states[0]
	if before.assembled == nil || before.dp.stages() != s.NumProcessors() || before.curve == nil {
		t.Fatalf("warm entry holds profile %v, %d DP rows, curve %v", before.assembled, before.dp.stages(), before.curve)
	}

	apply(throttle)
	throttled, hits, misses := lookup(held)
	if throttled == before.assembled || hits != 1 || misses != 1 {
		t.Fatalf("throttled lookup: same profile %t, %d hits, %d misses; want a re-assembly, 1 and 1", throttled == before.assembled, hits, misses)
	}
	pl.cache.batchCurve(held)
	lookup(late)

	apply(clear)
	if p, hits, misses := lookup(held); p != before.assembled || hits != 1 || misses != 0 {
		t.Errorf("lookup after the return: same profile %t, %d hits, %d misses; want the pre-episode profile, 1 and 0", p == before.assembled, hits, misses)
	}
	if st := e.states[0]; st.dp != before.dp || st.curve != before.curve || len(e.states) != 2 {
		t.Errorf("the return found other DP rows or batch curve than the pre-episode ones, or the entry holds %d states, want 2", len(e.states))
	}
	if _, hits, misses := lookup(late); hits != 1 || misses != 1 {
		t.Errorf("entry created during the episode: %d hits, %d misses after the return, want 1 and 1", hits, misses)
	}

	apply(throttle)
	if p, hits, misses := lookup(held); p != throttled || hits != 1 || misses != 0 {
		t.Errorf("lookup back in the throttled state: same profile %t, %d hits, %d misses; want the throttled profile, 1 and 0", p == throttled, hits, misses)
	}
	pl.InvalidateCache()
	apply(clear)
	if p, hits, misses := lookup(held); p == before.assembled || hits != 0 || misses != 1 {
		t.Errorf("lookup after InvalidateCache and a return: same profile %t, %d hits, %d misses; want a cold measurement", p == before.assembled, hits, misses)
	}
}

// TestCostCacheStateRetention pins the retention bound: an entry keeps at
// most maxTableStates table states and drops the least recently used one,
// so the nominal state, looked up between every excursion, outlives
// maxTableStates+1 distinct throttled states while the first of them goes.
func TestCostCacheStateRetention(t *testing.T) {
	s := soc.Kirin990()
	pl := mustPlanner(t, s, DefaultOptions())
	m := model.MustByName(model.ResNet50)
	nominal, err := pl.Profile(m)
	if err != nil {
		t.Fatal(err)
	}
	throttle := func(f float64) (*profile.Profile, Account) {
		t.Helper()
		if _, err := s.Apply(soc.Event{Kind: soc.EventThermalThrottle, Processor: "gpu", Factor: f}); err != nil {
			t.Fatal(err)
		}
		return lookupProfile(t, pl, m)
	}
	var first *profile.Profile
	for i := 0; i <= maxTableStates; i++ {
		p, _ := throttle(1.5 + float64(i)/10)
		if i == 0 {
			first = p
		}
		if back, _ := throttle(1); back != nominal {
			t.Fatalf("excursion %d: the nominal state was dropped", i)
		}
	}
	if n := len(pl.cache.entries[cacheKey(m)].states); n != maxTableStates {
		t.Errorf("entry holds %d table states, want the bound %d", n, maxTableStates)
	}
	p, acc := throttle(1.5)
	if p == first {
		t.Error("the least recently used state survived past the bound")
	}
	if acc.CacheMisses != 1 {
		t.Errorf("revisiting a dropped state counted %d misses, want 1", acc.CacheMisses)
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
	_, _, acc, err := pl.PlanModels(context.Background(), models, 1)
	if err != nil {
		t.Fatal(err)
	}
	if acc.CacheMisses != uint64(len(models)) {
		t.Fatalf("first plan measured %d models, want %d", acc.CacheMisses, len(models))
	}
	if _, _, acc, err = pl.PlanModels(context.Background(), models, 1); err != nil {
		t.Fatal(err)
	}
	if acc.CacheMisses != 0 {
		t.Fatalf("second plan re-measured %d models", acc.CacheMisses)
	}
	if acc.CacheHits != uint64(len(models)) {
		t.Fatalf("second plan counted %d hits, want %d", acc.CacheHits, len(models))
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
			p, groups[i], _, errs[i] = pl.PlanModels(context.Background(), window, 32)
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
