package core

import (
	"slices"
	"sync"
	"sync/atomic"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// Cost-table memoization. Building a profile.Profile is the planner's
// measurement phase — O(nK) roofline layer-cost evaluations per model — and
// it is pure: the tables depend only on the (SoC, model) pair. The planner
// therefore computes each model's tables once and shares the read-only
// Profile across worker goroutines, across candidate orderings, and across
// internal/stream planning windows. Batched requests participate naturally:
// model.Batched mints a distinct name ("X×4"), so every batch size gets its
// own entry.
//
// Entries are held at (model, processor) granularity so degradation events
// invalidate partially: a thermal throttle or offline transition on one
// processor stales only that processor's table in every entry, and the next
// lookup re-measures the stale slot while sharing the other K−1 tables
// (profile.FromTables). The whole-profile view is cached alongside so a
// fully warm lookup still returns one shared immutable Profile instance.
//
// Each entry also owns its model's Algorithm-1 state: the DP rows computed
// from the entry's tables (see dpRows). Stage k's row of the recurrence
//
//	S*(j, k) = min_i max{ S*(i-1, k-1), T_k^e(i, j) }
//
// reads only processor k's table and the stage-(k−1) row, with processors
// identified with stages in capability order. So the rows below the first
// re-measured processor are exactly what a refill would compute, and
// dropping processor q's table truncates the rows to the first q — the one
// invalidation rule for tables and rows alike. A re-assembled entry inherits
// the surviving rows and the planner resumes the DP where they end.
//
// Lifecycle: the cache belongs to one Planner and is keyed by the SoC the
// entries were measured on; if the planner's SoC description is swapped the
// cache detects the mismatch and drops every entry (the invalidation rule —
// stale tables would silently misprice every slice). InvalidateCache forces
// the same reset after an in-place SoC mutation, which pointer identity
// cannot see; InvalidateProcessors is the partial form degradation events
// use.

// cacheEntry holds one model's memoized state: the per-processor tables
// (nil slots were invalidated and need re-measurement), when every slot is
// present the assembled Profile shared with every holder, the DP rows
// computed from the tables, and the batching state.
type cacheEntry struct {
	// model is the structural identity the tables were measured for — the
	// collision guard behind the name-based key.
	model  *model.Model
	tables []*profile.Table
	// assembled is the whole-profile view; nil whenever any table slot is.
	assembled *profile.Profile
	// dp holds the DP rows of stages [0, q), where q is at most the first
	// nil table slot; nil when no row survives.
	dp *dpRows
	// curve is the model's batch-latency curve on the reference processor;
	// nil until measured and after that processor's slot is dropped.
	curve *soc.BatchCurve
	// batched[n] is the model batched n× (n ≥ 2), nil until first asked for.
	batched []*model.Model
}

// dpRows is one model's Algorithm-1 state: the S* rows, rows[s][j+1] =
// S*(j, s) for stages [0, len(rows)), plus — once all K rows exist — the
// bottleneck best and the cuts backtracked from the rows (nil when best is
// +Inf: no feasible partition, memoized so retries fail fast and a
// recovery event resumes instead of refilling). The rows fix every split,
// so no split choice is stored beside them. Values are immutable:
// truncating or resuming builds a new value that shares the surviving
// prefix rows, so concurrent planners never observe a half-written row.
type dpRows struct {
	rows [][]float64
	best float64
	cuts pipeline.Cuts
}

// stages returns how many stages' rows d holds (0 for nil).
func (d *dpRows) stages() int {
	if d == nil {
		return 0
	}
	return len(d.rows)
}

// truncate returns d's rows for stages [0, q): d itself when it holds no
// more, nil when q is 0.
func (d *dpRows) truncate(q int) *dpRows {
	switch {
	case q >= d.stages():
		return d
	case q <= 0:
		return nil
	}
	return &dpRows{rows: d.rows[:q:q]}
}

// costCache memoizes per-(model, processor, batch) cost tables.
type costCache struct {
	mu      sync.RWMutex
	soc     *soc.SoC
	entries map[entryKey]*cacheEntry
	hits    atomic.Uint64
	misses  atomic.Uint64
	// hitC/missC mirror the lifetime counters into the owning planner's
	// metrics registry (detached instruments when no registry is set).
	hitC  *obs.Counter
	missC *obs.Counter
}

func newCostCache(s *soc.SoC, reg *obs.Registry) *costCache {
	return &costCache{
		soc:     s,
		entries: make(map[entryKey]*cacheEntry),
		hitC:    reg.Counter("planner_cache_hits_total"),
		missC:   reg.Counter("planner_cache_misses_total"),
	}
}

// entryKey identifies a model cheaply. Name alone is not trusted — two
// distinct models may share a name — so lookups verify structural equality
// before counting a hit.
type entryKey struct {
	name   string
	layers int
}

func cacheKey(m *model.Model) entryKey {
	return entryKey{m.Name, m.NumLayers()}
}

// sameModel reports whether two models are structurally identical — the
// collision guard behind the name-based key. O(n) field compares, orders of
// magnitude cheaper than re-measuring the tables.
func sameModel(a, b *model.Model) bool {
	if a == b {
		return true
	}
	if a.Name != b.Name || a.InputBytes != b.InputBytes || len(a.Layers) != len(b.Layers) {
		return false
	}
	for i := range a.Layers {
		if a.Layers[i] != b.Layers[i] {
			return false
		}
	}
	return true
}

// profile returns the cached tables for m on s, measuring stale or missing
// slots on first use. Safe for concurrent use; the returned Profile is
// shared and read-only.
//
// Counter semantics: a lookup counts one hit when it reuses at least one
// cached table and one miss when it measures at least one, so a fully warm
// lookup is one hit, a cold one is one miss, and a partially invalidated
// one is both — the hit records exactly the satellite fact that the
// unaffected (model, processor) tables survived the event.
func (c *costCache) profile(s *soc.SoC, m *model.Model) (*profile.Profile, error) {
	key := cacheKey(m)
	c.mu.RLock()
	var reuse []*profile.Table
	if c.soc == s {
		if e, ok := c.entries[key]; ok && sameModel(e.model, m) {
			if e.assembled != nil {
				c.mu.RUnlock()
				c.hits.Add(1)
				c.hitC.Inc()
				return e.assembled, nil
			}
			reuse = append([]*profile.Table(nil), e.tables...)
		}
	}
	c.mu.RUnlock()

	reused := 0
	for _, t := range reuse {
		if t != nil {
			reused++
		}
	}
	if reused > 0 {
		c.hits.Add(1)
		c.hitC.Inc()
	}
	c.misses.Add(1)
	c.missC.Inc()
	p, err := profile.FromTables(s, m, reuse)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	c.resetFor(s)
	e, ok := c.entries[key]
	switch {
	case ok && sameModel(e.model, m):
		if e.assembled != nil {
			// A concurrent worker assembled the same model first; keep its
			// entry so every holder shares one Profile.
			c.mu.Unlock()
			return e.assembled, nil
		}
		// The surviving rows were computed from tables p reuses: a slot
		// only ever goes from a table to nil within one entry, and a nil
		// slot truncated the rows below it. The batching state stays too.
	default:
		e = &cacheEntry{model: m}
		c.entries[key] = e
	}
	e.tables = make([]*profile.Table, p.NumProcessors())
	for k := range e.tables {
		e.tables[k] = p.Table(k)
	}
	e.assembled = p
	c.mu.Unlock()
	return p, nil
}

// resetFor drops every entry when s is not the SoC they were measured on;
// the caller holds the write lock.
func (c *costCache) resetFor(s *soc.SoC) {
	if c.soc != s {
		c.soc = s
		c.entries = make(map[entryKey]*cacheEntry)
	}
}

// batchEntry returns m's entry for its batching state, creating one with
// no tables when m has none; the caller holds the write lock. It returns
// nil when a structurally different model holds m's key: batching never
// evicts another model's tables, so such a model is measured afresh.
func (c *costCache) batchEntry(s *soc.SoC, m *model.Model) *cacheEntry {
	c.resetFor(s)
	key := cacheKey(m)
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{model: m, tables: make([]*profile.Table, s.NumProcessors())}
		c.entries[key] = e
	}
	if !sameModel(e.model, m) {
		return nil
	}
	return e
}

// batchCurve returns m's batch-latency curve on s's reference processor,
// measuring it on first use and after the processor's slot was dropped.
// Batching lookups count neither cache hits nor misses: those describe the
// cost tables alone.
func (c *costCache) batchCurve(s *soc.SoC, m *model.Model) soc.BatchCurve {
	c.mu.RLock()
	if c.soc == s {
		if e, ok := c.entries[cacheKey(m)]; ok && e.curve != nil && sameModel(e.model, m) {
			curve := *e.curve
			c.mu.RUnlock()
			return curve
		}
	}
	c.mu.RUnlock()
	curve := soc.NewBatchCurve(referenceProcessor(s), m)
	c.mu.Lock()
	if e := c.batchEntry(s, m); e != nil {
		e.curve = &curve
	}
	c.mu.Unlock()
	return curve
}

// batchedModel returns m batched n× (n ≥ 2): one variant per entry and
// size, so every window that forms the same batch plans the same model.
func (c *costCache) batchedModel(s *soc.SoC, m *model.Model, n int) *model.Model {
	c.mu.RLock()
	if c.soc == s {
		if e, ok := c.entries[cacheKey(m)]; ok && n < len(e.batched) && e.batched[n] != nil && sameModel(e.model, m) {
			v := e.batched[n]
			c.mu.RUnlock()
			return v
		}
	}
	c.mu.RUnlock()
	v := model.Batched(m, n)
	c.mu.Lock()
	if e := c.batchEntry(s, m); e != nil {
		if n >= len(e.batched) {
			e.batched = append(e.batched, make([]*model.Model, n+1-len(e.batched))...)
		}
		if e.batched[n] == nil {
			e.batched[n] = v
		}
		v = e.batched[n]
	}
	c.mu.Unlock()
	return v
}

// rowsFor returns the DP rows memoized for p, and whether p is its model
// entry's assembled profile at all — the only profile the memo serves.
func (c *costCache) rowsFor(p *profile.Profile) (*dpRows, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[cacheKey(p.Model())]
	if !ok || e.assembled != p {
		return nil, false
	}
	return e.dp, true
}

// publishRows stores d as the DP state of p's entry, unless p stopped being
// the entry's assembled profile while the DP ran (an invalidation retired
// it; d's rows may then describe dropped tables).
func (c *costCache) publishRows(p *profile.Profile, d *dpRows) {
	c.mu.Lock()
	if e, ok := c.entries[cacheKey(p.Model())]; ok && e.assembled == p {
		e.dp = d
	}
	c.mu.Unlock()
}

// stats returns the lifetime hit/miss counters.
func (c *costCache) stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// invalidate drops every entry (counters survive — they describe the
// planner's lifetime, not one cache generation).
func (c *costCache) invalidate() {
	c.mu.Lock()
	c.entries = make(map[entryKey]*cacheEntry)
	c.mu.Unlock()
}

// invalidateProcessors drops only the named processors' tables from every
// entry — the partial invalidation a degradation event triggers — and
// truncates each entry's DP rows to the stages below the first of them.
// Naming the reference processor also drops every batch curve. Tables of
// unaffected (model, processor) pairs stay cached and keep producing hits.
func (c *costCache) invalidateProcessors(procs []int) {
	if len(procs) == 0 {
		return
	}
	c.mu.Lock()
	dropCurves := slices.Contains(procs, referenceIndex(c.soc))
	for _, e := range c.entries {
		if dropCurves {
			e.curve = nil
		}
		first := len(e.tables)
		for _, k := range procs {
			if k >= 0 && k < len(e.tables) {
				first = min(first, k)
				if e.tables[k] != nil {
					e.tables[k] = nil
					e.assembled = nil
				}
			}
		}
		e.dp = e.dp.truncate(first)
	}
	c.mu.Unlock()
}

// Profile returns the planner's memoized cost tables for m, measuring them
// on first use. Callers may hold the result across PlanModels calls; it is
// immutable.
func (pl *Planner) Profile(m *model.Model) (*profile.Profile, error) {
	return pl.cache.profile(pl.soc, m)
}

// CacheStats returns the planner's lifetime cost-cache hit/miss counters: a
// lookup counts a hit when it reuses at least one cached (model, processor)
// table and a miss when it measures at least one, so a warm lookup is one
// hit, a cold one is one miss, and a lookup after a partial invalidation is
// both.
func (pl *Planner) CacheStats() (hits, misses uint64) {
	return pl.cache.stats()
}

// InvalidateCache drops every memoized cost table, the DP rows computed
// from them, and every memoized whole plan. Call it after mutating the SoC
// description in place (frequency scaling, thermal capping experiments);
// the next plan re-measures and re-partitions every model. It is the whole
// escape hatch: a mutation that bypasses soc.SoC.Apply leaves the epoch
// alone, but with every plan flushed no signature can match a plan
// computed before it.
func (pl *Planner) InvalidateCache() {
	pl.cache.invalidate()
	if pl.planCache != nil {
		pl.planCache.invalidate()
	}
}

// InvalidateProcessors drops only the named processors' memoized tables —
// the partial invalidation matching a degradation event's affected set
// (soc.SoC.Apply returns it). Unaffected (model, processor) tables stay
// cached; the next lookup re-measures the stale slots and shares the rest,
// and each model's DP resumes at the first dropped processor's stage.
// A non-empty set also flushes the whole-plan cache: a plan spans every
// processor, so no memoized plan survives any processor's transition (the
// bumped epoch already makes those entries unreachable; flushing reclaims
// them). An empty set — a no-op event — touches neither cache.
func (pl *Planner) InvalidateProcessors(procs ...int) {
	pl.cache.invalidateProcessors(procs)
	if len(procs) > 0 && pl.planCache != nil {
		pl.planCache.invalidate()
	}
}

// SoC returns the SoC the planner plans for — the object degradation
// events mutate in place (followed by InvalidateProcessors on the affected
// set).
func (pl *Planner) SoC() *soc.SoC { return pl.soc }
