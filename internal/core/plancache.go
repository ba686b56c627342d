package core

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hetero2pipe/internal/contention"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
)

// Whole-plan memoization. The cost-table cache removes the measurement cost
// of repeated planning, but every PlanProfiles call still pays the full
// two-step optimisation — per-model partition DPs, the LAP mitigation
// reorder, work stealing and the tail local search across ~6 candidate
// orderings. In the stream scheduler's steady state (the same request mix
// window after window against an unchanged SoC) that work recomputes an
// identical plan every time. The plan cache memoizes whole plans behind a
// canonical window signature:
//
//	SoC degradation epoch | planner options fingerprint | ordered model digests
//
// The epoch (soc.SoC.Epoch) is the validity token: every state-changing
// degradation event bumps it, so a cached plan can never survive a throttle,
// frequency step, offline/online transition or bus squeeze — without the
// cache ever re-hashing the SoC description. The model sequence is kept in
// window order, not sorted: the planner's candidate orderings and the
// Order index mapping depend on the order requests arrive in, so two
// permutations of one multiset are distinct planner inputs with distinct
// (byte-different) plans.
//
// Hits return a deep copy: plans are mutable (stream callers hand the
// schedule to the executor, experiments rewrite stage rows), so the cache
// keeps a private copy at insert and clones it on every hit. Structural
// model verification guards the digest-based key the same way sameModel
// guards the cost cache's name-based key, so a digest collision degrades to
// a miss, never a wrong plan.

// planKey is the canonical window signature.
type planKey = string

// Objective-mode dimension of the signature: single-plan and frontier
// entries share the LRU but can never collide, because the mode is the
// first byte of the key.
const (
	modeSinglePlan = "s"
	modeFrontier   = "f"
)

// planSignature builds the canonical signature for a window of models
// planned at the given SoC epoch under the fingerprinted options. mode is
// the objective dimension (modeSinglePlan or modeFrontier): a frontier and
// the single min-makespan plan for the same window are distinct cache
// values with distinct keys.
func planSignature(mode string, epoch uint64, optsFP string, models []*model.Model) planKey {
	var b strings.Builder
	b.Grow(len(mode) + len(optsFP) + 21 + 17*len(models))
	b.WriteString(mode)
	b.WriteByte('|')
	b.WriteString(strconv.FormatUint(epoch, 16))
	b.WriteByte('|')
	b.WriteString(optsFP)
	for _, m := range models {
		b.WriteByte('|')
		b.WriteString(strconv.FormatUint(modelDigest(m), 16))
	}
	return b.String()
}

// modelDigest is an FNV-1a content hash over every planner-relevant model
// field: two models with equal digests are structurally identical up to
// 64-bit hash collision, which the structural hit guard then rules out.
func modelDigest(m *model.Model) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	wu := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	ws := func(s string) {
		wu(uint64(len(s)))
		h.Write([]byte(s))
	}
	ws(m.Name)
	wu(uint64(m.InputBytes))
	wu(uint64(len(m.Layers)))
	for i := range m.Layers {
		l := &m.Layers[i]
		ws(l.Name)
		wu(uint64(l.Kind))
		wu(math.Float64bits(l.FLOPs))
		wu(uint64(l.InputBytes))
		wu(uint64(l.OutputBytes))
		wu(uint64(l.WeightBytes))
		wu(uint64(l.WorkingSetBytes))
	}
	return h.Sum64()
}

// optionsFingerprint canonicalises the Options fields that influence plan
// content. Parallelism is deliberately absent (plans are byte-identical at
// every worker count; see Options.Parallelism), as are the Metrics/Logger
// handles, which observe planning without steering it.
func optionsFingerprint(o Options) string {
	est := "nil"
	if o.Estimator != nil {
		// Pointer identity: the estimator's weights are treated as immutable
		// for the planner's lifetime, like the SoC description between
		// epochs. Swapping in a new estimator means a new Planner (or an
		// InvalidateCache call).
		est = fmt.Sprintf("%p", o.Estimator)
	}
	// Beam fields steer which candidates get priced, and so the plan bytes.
	// Nothing about the memoized Algorithm-1 rows appears: they are
	// byte-identical to a refill, so they never change a plan.
	return fmt.Sprintf("q=%g;mit=%t;ws=%t;tail=%t;cont=%t;mem=%t;smem=%t;est=%s;bw=%d;beps=%g;dl=%s",
		o.HighQuantile, o.Mitigation, o.WorkStealing, o.TailOptimization,
		o.ExecOptions.Contention, o.ExecOptions.EnforceMemory, o.ExecOptions.SampleMemory, est,
		o.BeamWidth, o.BeamEpsilon, o.AnytimeDeadline)
}

// planEntry is one memoized value — a single plan or a whole frontier,
// exactly one of the two set, matching the key's mode byte — plus the
// ordered model identities backing its signature (the structural collision
// guard).
type planEntry struct {
	key      planKey
	models   []*model.Model
	plan     *Plan
	frontier *Frontier
}

// planCache is a bounded LRU of whole plans. All methods are safe for
// concurrent use.
type planCache struct {
	mu      sync.Mutex
	cap     int
	entries map[planKey]*list.Element
	order   *list.List // front = most recently used

	hits   atomic.Uint64
	misses atomic.Uint64
	// hitC/missC mirror the lifetime counters into the owning planner's
	// metrics registry (detached instruments when no registry is set).
	hitC  *obs.Counter
	missC *obs.Counter
}

func newPlanCache(capacity int, reg *obs.Registry) *planCache {
	return &planCache{
		cap:     capacity,
		entries: make(map[planKey]*list.Element),
		order:   list.New(),
		hitC:    reg.Counter("planner_plan_cache_hits_total"),
		missC:   reg.Counter("planner_plan_cache_misses_total"),
	}
}

// get returns a deep copy of the memoized plan for key, or nil. models are
// the window's ordered identities; a signature match with a structural
// mismatch (a digest collision) counts as a miss.
func (c *planCache) get(key planKey, models []*model.Model) *Plan {
	c.mu.Lock()
	el, ok := c.entries[key]
	if ok {
		e := el.Value.(*planEntry)
		if e.plan != nil && sameModels(e.models, models) {
			c.order.MoveToFront(el)
			plan := deepCopyPlan(e.plan)
			c.mu.Unlock()
			c.hits.Add(1)
			c.hitC.Inc()
			return plan
		}
	}
	c.mu.Unlock()
	c.misses.Add(1)
	c.missC.Inc()
	return nil
}

// getFrontier is get for whole-frontier entries: a deep copy of the
// memoized frontier for key, or nil. Same LRU, same hit/miss counters —
// one hit means one window's planning skipped, regardless of mode.
func (c *planCache) getFrontier(key planKey, models []*model.Model) *Frontier {
	c.mu.Lock()
	el, ok := c.entries[key]
	if ok {
		e := el.Value.(*planEntry)
		if e.frontier != nil && sameModels(e.models, models) {
			c.order.MoveToFront(el)
			f := deepCopyFrontier(e.frontier)
			c.mu.Unlock()
			c.hits.Add(1)
			c.hitC.Inc()
			return f
		}
	}
	c.mu.Unlock()
	c.misses.Add(1)
	c.missC.Inc()
	return nil
}

// put memoizes a private deep copy of plan under key, evicting the
// least-recently-used entries beyond the capacity bound.
func (c *planCache) put(key planKey, models []*model.Model, plan *Plan) {
	c.putEntry(&planEntry{
		key:    key,
		models: append([]*model.Model(nil), models...),
		plan:   deepCopyPlan(plan),
	})
}

// putFrontier memoizes a private deep copy of a whole frontier under key.
func (c *planCache) putFrontier(key planKey, models []*model.Model, f *Frontier) {
	c.putEntry(&planEntry{
		key:      key,
		models:   append([]*model.Model(nil), models...),
		frontier: deepCopyFrontier(f),
	})
}

func (c *planCache) putEntry(entry *planEntry) {
	key := entry.key
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		el.Value = entry
		c.order.MoveToFront(el)
		c.mu.Unlock()
		return
	}
	c.entries[key] = c.order.PushFront(entry)
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*planEntry).key)
	}
	c.mu.Unlock()
}

// stats returns the lifetime hit/miss counters.
func (c *planCache) stats() (hits, misses uint64) {
	return c.hits.Load(), c.misses.Load()
}

// contains reports whether key is memoized with a structural match, without
// touching the LRU order or the hit/miss counters — the read-only peek
// behind Planner.HasCachedPlan.
func (c *planCache) contains(key planKey, models []*model.Model) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	return ok && sameModels(el.Value.(*planEntry).models, models)
}

// len returns the current entry count (tests inspect the LRU bound).
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// invalidate drops every entry (counters survive — lifetime semantics,
// matching costCache.invalidate).
func (c *planCache) invalidate() {
	c.mu.Lock()
	c.entries = make(map[planKey]*list.Element)
	c.order.Init()
	c.mu.Unlock()
}

// sameModels verifies the ordered structural identity behind a signature
// match.
func sameModels(a, b []*model.Model) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameModel(a[i], b[i]) {
			return false
		}
	}
	return true
}

// deepCopyPlan clones every mutable layer of a plan: the schedule's stage
// rows (Schedule.Clone — SoC and profiles are shared, immutable between
// epochs) and all index/score slices. Cache and caller never alias.
func deepCopyPlan(p *Plan) *Plan {
	out := &Plan{
		Order:               append([]int(nil), p.Order...),
		Classes:             append([]contention.Class(nil), p.Classes...),
		Intensities:         append([]float64(nil), p.Intensities...),
		HorizontalMakespans: append([]float64(nil), p.HorizontalMakespans...),
	}
	if p.Schedule != nil {
		out.Schedule = p.Schedule.Clone()
		// Clone shares the Profiles slice header (the profiles themselves are
		// immutable, but the slice is not): give the copy its own backing
		// array so a caller appending to or reordering a hit's Profiles —
		// e.g. through a selected FrontierPoint — cannot reach the cached
		// entry. Deliberately here and not in Schedule.Clone, which sits on
		// the tail-search hot path where the extra allocation would cost.
		out.Schedule.Profiles = append([]*profile.Profile(nil), p.Schedule.Profiles...)
	}
	if p.Cuts != nil {
		out.Cuts = make([]pipeline.Cuts, len(p.Cuts))
		for i, c := range p.Cuts {
			out.Cuts[i] = append(pipeline.Cuts(nil), c...)
		}
	}
	return out
}

// deepCopyFrontier clones every plan on the frontier (objectives and
// candidate indices are values). Cache and caller never alias.
func deepCopyFrontier(f *Frontier) *Frontier {
	out := &Frontier{Points: make([]FrontierPoint, len(f.Points))}
	for i, p := range f.Points {
		out.Points[i] = FrontierPoint{
			Plan:      deepCopyPlan(p.Plan),
			Objective: p.Objective,
			Candidate: p.Candidate,
		}
	}
	return out
}

// PlanCacheStats returns the planner's lifetime whole-plan cache hit/miss
// counters: one hit per window served from the cache, one miss per window
// that ran the full two-step optimisation. Both zero when the cache is
// disabled (Options.PlanCache ≤ 0).
func (pl *Planner) PlanCacheStats() (hits, misses uint64) {
	if pl.planCache == nil {
		return 0, 0
	}
	return pl.planCache.stats()
}

// HasCachedPlan reports whether a plan for the given window of models — in
// window order, at the SoC's current degradation epoch, under this planner's
// options — is memoized right now. It is a pure peek: no LRU reordering, no
// hit/miss accounting, so routing layers (the fleet's plan-cache affinity
// policy) can probe candidate devices without skewing cache statistics.
// Always false when the plan cache is disabled.
func (pl *Planner) HasCachedPlan(models []*model.Model) bool {
	if pl.planCache == nil {
		return false
	}
	return pl.planCache.contains(planSignature(modeSinglePlan, pl.soc.Epoch(), pl.optsFP, models), models)
}
