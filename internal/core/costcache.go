package core

import (
	"slices"
	"sync"

	"hetero2pipe/internal/model"
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
// Entries are held at (model, processor) granularity over one model-level
// half per model (profile.Base: validation, weight prefix, activation
// range-max, copy-in table), which no degradation event stales. A
// processor's table is a pure function of the model and that processor's
// derating state, so each entry keeps up to maxTableStates table states,
// keyed by the processor-state vector they were measured in (one
// soc.Degradation.Canonical per processor). A lookup in a state the entry
// holds is a hit that returns that state's shared Profile. A lookup in a
// new state borrows, for every processor, a held table measured in that
// processor's current state, and measures only the rest
// (profile.Base.Assemble).
//
// Each table state also owns its model's Algorithm-1 state: the DP rows
// computed from its tables (see dpRows). Stage k's row of the recurrence
//
//	S*(j, k) = min_i max{ S*(i-1, k-1), T_k^e(i, j) }
//
// reads only processor k's table and the stage-(k−1) row, with processors
// identified with stages in capability order. So a new state borrows the
// rows of the held state whose processor states agree with it on the
// longest prefix, cut to that prefix, and the planner resumes the DP where
// they end: after a throttle on processor q, the rows below q. A return to
// a state the entry still holds (the nominal one, or any other) is the
// same lookup finding every table, the Profile and all K rows: no
// measurement and no DP cell. The batch curve on the reference processor
// is borrowed alike, from a held state in which that processor's state is
// the current one. Tables measured in a state are what a re-measurement in
// it would produce, so every borrow is exact.
//
// Degradation events invalidate nothing: a state's memos are never looked
// up in another state, and the least recently used state beyond the bound
// is dropped. The cache belongs to one Planner and its SoC. InvalidateCache
// drops every entry, with its Base, after an in-place edit of the SoC
// description outside the state identity (processor speeds, copy
// bandwidth), which no key can see.

// maxTableStates bounds the table states one entry keeps: the retention
// bound that keeps a long degradation storm from growing the cache with
// every state it visits.
const maxTableStates = 8

// cacheEntry holds one model's memoized state: the model-level half of
// its profiles, the table states it was measured in, and the batching
// state.
type cacheEntry struct {
	// model is the structural identity the tables were measured for — the
	// collision guard behind the name-based key.
	model *model.Model
	// base is the model-level half every assembled Profile shares; nil
	// until the first table lookup.
	base *profile.Base
	// states are the entry's table states, most recently used first.
	states []*tableState
	// batched[n] is the model batched n× (n ≥ 2), nil until first asked for.
	batched []*model.Model
}

// tableState is what one processor-state vector fixes for a model: the
// per-processor tables (a nil slot is not measured yet), the assembled
// Profile shared with every holder once every slot is present, the DP rows
// computed from the tables, the Algorithm-3 alignments of their cuts, and
// the batch curve.
type tableState struct {
	// procs[k] is processor k's canonical derating state.
	procs  []soc.Degradation
	tables []*profile.Table
	// assembled is the whole-profile view; nil until every slot is filled.
	assembled *profile.Profile
	// dp holds the DP rows of stages [0, q); nil when no row exists.
	dp *dpRows
	// align memoizes Algorithm-3 alignments of dp's cuts.
	align *alignMemo
	// curve is the model's batch-latency curve on the reference processor;
	// nil until measured.
	curve *soc.BatchCurve
}

// dpRows is one model's Algorithm-1 state: the S* rows, rows[s][j+1] =
// S*(j, s) for stages [0, len(rows)), plus — once all K rows exist — the
// bottleneck best and the cuts backtracked from the rows (nil when best is
// +Inf: no feasible partition, memoized so retries fail fast and a
// recovery event resumes instead of refilling). The rows fix every split,
// so no split choice is stored beside them. Values are immutable: a
// borrowed prefix or a resumed DP builds a new value that shares the
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

// sharedPrefix returns how many leading processors of s are in the state
// st was measured in; len(st.procs) when st is s's current state.
func (st *tableState) sharedPrefix(s *soc.SoC) int {
	for k, d := range st.procs {
		if d != s.Processors[k].Degrade.Canonical() {
			return k
		}
	}
	return len(st.procs)
}

// current returns e's most recently used table state when it describes
// s's current processor states, or nil; the caller holds the lock.
func (e *cacheEntry) current(s *soc.SoC) *tableState {
	if len(e.states) == 0 {
		return nil
	}
	if st := e.states[0]; st.sharedPrefix(s) == len(st.procs) {
		return st
	}
	return nil
}

// state returns e's table state for s's current processor states, first
// moving it to the front of e.states, and creates one when e holds none:
// the new state borrows every table measured in its processor's current
// state, the batch curve when the reference processor's state matches, and
// the most DP rows any held state's shared state prefix covers. The least
// recently used state beyond maxTableStates is dropped. The caller holds
// the write lock.
func (e *cacheEntry) state(s *soc.SoC) *tableState {
	var rows [][]float64
	for i, held := range e.states {
		q := held.sharedPrefix(s)
		if q == len(held.procs) {
			copy(e.states[1:i+1], e.states[:i])
			e.states[0] = held
			return held
		}
		if q = min(q, held.dp.stages()); q > len(rows) {
			rows = held.dp.rows[:q:q]
		}
	}
	k, ref := s.NumProcessors(), referenceIndex(s)
	st := &tableState{procs: make([]soc.Degradation, k), tables: make([]*profile.Table, k), align: new(alignMemo)}
	if len(rows) > 0 {
		st.dp = &dpRows{rows: rows}
	}
	for p := range st.procs {
		st.procs[p] = s.Processors[p].Degrade.Canonical()
	}
	for _, held := range e.states {
		for p, t := range held.tables {
			if st.tables[p] == nil && held.procs[p] == st.procs[p] {
				st.tables[p] = t
			}
		}
		if st.curve == nil && held.procs[ref] == st.procs[ref] {
			st.curve = held.curve
		}
	}
	e.states = slices.Insert(e.states, 0, st)
	if len(e.states) > maxTableStates {
		e.states = slices.Delete(e.states, maxTableStates, len(e.states))
	}
	return st
}

// costCache memoizes per-(model, processor, batch) cost tables over one
// shared profile.Base per model, keyed by the processor states they were
// measured in.
type costCache struct {
	mu      sync.RWMutex
	soc     *soc.SoC
	entries map[entryKey]*cacheEntry
}

func newCostCache(s *soc.SoC) *costCache {
	return &costCache{soc: s, entries: make(map[entryKey]*cacheEntry)}
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

// profile returns the cached tables for m in the SoC's current state,
// measuring missing slots on first use, and counts the lookup in acc. Safe
// for concurrent use; the returned Profile is shared and read-only.
//
// Counter semantics: a lookup counts one hit when it reuses at least one
// cached table and one miss when it measures at least one, so a fully warm
// lookup is one hit, a cold one is one miss, and one in a new state that
// borrows some tables and measures the rest is both — the hit records
// exactly the satellite fact that the unaffected (model, processor) tables
// survived the event. A failed lookup counts neither.
func (c *costCache) profile(m *model.Model, acc *Account) (*profile.Profile, error) {
	key := cacheKey(m)
	c.mu.RLock()
	if e, ok := c.entries[key]; ok && sameModel(e.model, m) {
		if st := e.current(c.soc); st != nil && st.assembled != nil {
			c.mu.RUnlock()
			acc.CacheHits++
			return st.assembled, nil
		}
	}
	c.mu.RUnlock()

	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[key]
	if !ok || !sameModel(e.model, m) {
		e = &cacheEntry{model: m}
		c.entries[key] = e
	}
	if e.base == nil {
		base, err := profile.NewBase(c.soc, m)
		if err != nil {
			return nil, err
		}
		e.base = base
	}
	st := e.state(c.soc)
	if st.assembled != nil {
		acc.CacheHits++
		return st.assembled, nil
	}
	p, err := e.base.Assemble(st.tables)
	if err != nil {
		return nil, err
	}
	reused := 0
	for k, t := range st.tables {
		if t != nil {
			reused++
		}
		st.tables[k] = p.Table(k)
	}
	st.assembled = p
	if reused > 0 {
		acc.CacheHits++
	}
	if reused < len(st.tables) {
		acc.CacheMisses++
	}
	return p, nil
}

// batchEntry returns m's entry for its batching state, creating one when m
// has none; the caller holds the write lock. It returns nil when a
// structurally different model holds m's key: batching never evicts another
// model's tables, so such a model is measured afresh.
func (c *costCache) batchEntry(m *model.Model) *cacheEntry {
	key := cacheKey(m)
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{model: m}
		c.entries[key] = e
	}
	if !sameModel(e.model, m) {
		return nil
	}
	return e
}

// batchCurve returns m's batch-latency curve on the SoC's reference
// processor in its current state, measuring it on first use in that state.
// Batching lookups count neither cache hits nor misses: those describe the
// cost tables alone.
func (c *costCache) batchCurve(m *model.Model) soc.BatchCurve {
	c.mu.RLock()
	if e, ok := c.entries[cacheKey(m)]; ok && sameModel(e.model, m) {
		if st := e.current(c.soc); st != nil && st.curve != nil {
			curve := *st.curve
			c.mu.RUnlock()
			return curve
		}
	}
	c.mu.RUnlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.batchEntry(m)
	if e == nil {
		return soc.NewBatchCurve(referenceProcessor(c.soc), m)
	}
	st := e.state(c.soc)
	if st.curve == nil {
		curve := soc.NewBatchCurve(referenceProcessor(c.soc), m)
		st.curve = &curve
	}
	return *st.curve
}

// batchedModel returns m batched n× (n ≥ 2): one variant per entry and
// size, so every window that forms the same batch plans the same model.
func (c *costCache) batchedModel(m *model.Model, n int) *model.Model {
	c.mu.RLock()
	if e, ok := c.entries[cacheKey(m)]; ok && n < len(e.batched) && e.batched[n] != nil && sameModel(e.model, m) {
		v := e.batched[n]
		c.mu.RUnlock()
		return v
	}
	c.mu.RUnlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.batchEntry(m)
	if e == nil {
		return model.Batched(m, n)
	}
	if n >= len(e.batched) {
		e.batched = append(e.batched, make([]*model.Model, n+1-len(e.batched))...)
	}
	if e.batched[n] == nil {
		e.batched[n] = model.Batched(m, n)
	}
	return e.batched[n]
}

// stateOf returns the table state whose assembled profile p is, or nil
// when p is no held state's — the only profiles the DP-row memo serves.
// The caller holds the lock.
func (c *costCache) stateOf(p *profile.Profile) *tableState {
	if e, ok := c.entries[cacheKey(p.Model())]; ok {
		for _, st := range e.states {
			if st.assembled == p {
				return st
			}
		}
	}
	return nil
}

// rowsFor returns the table state whose assembled profile p is, with the
// DP rows memoized on it; a nil state when p is no held state's.
func (c *costCache) rowsFor(p *profile.Profile) (*tableState, *dpRows) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	st := c.stateOf(p)
	if st == nil {
		return nil, nil
	}
	return st, st.dp
}

// publishRows stores d as the DP state of p's table state, unless that
// state was dropped while the DP ran.
func (c *costCache) publishRows(p *profile.Profile, d *dpRows) {
	c.mu.Lock()
	if st := c.stateOf(p); st != nil {
		st.dp = d
	}
	c.mu.Unlock()
}

// invalidate drops every entry.
func (c *costCache) invalidate() {
	c.mu.Lock()
	c.entries = make(map[entryKey]*cacheEntry)
	c.mu.Unlock()
}

// Profile returns the planner's memoized cost tables for m, measuring them
// on first use, and settles the lookup like a planning call's account.
// Callers may hold the result across PlanModels calls; it is immutable.
func (pl *Planner) Profile(m *model.Model) (*profile.Profile, error) {
	var acc Account
	p, err := pl.cache.profile(m, &acc)
	pl.settle(acc)
	return p, err
}

// CacheStats returns the planner's lifetime cost-cache hit/miss totals, the
// sums of every call's Account.CacheHits and CacheMisses (and of Profile's
// lookups). They survive InvalidateCache.
func (pl *Planner) CacheStats() (hits, misses uint64) {
	return pl.hits.Load(), pl.misses.Load()
}

// InvalidateCache drops every memoized cost table, the DP rows computed
// from them, and every memoized whole plan. Degradation events need no
// call: every memo keys on the SoC state it was computed in. Call it after
// editing the SoC description in place outside that state (processor
// speeds, bandwidths), which no key sees; the next plan re-measures and
// re-partitions every model.
func (pl *Planner) InvalidateCache() {
	pl.cache.invalidate()
	if pl.planCache != nil {
		pl.planCache.invalidate()
	}
}

// SoC returns the SoC the planner plans for — the object degradation
// events mutate in place.
func (pl *Planner) SoC() *soc.SoC { return pl.soc }
