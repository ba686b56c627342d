package core

import (
	"container/list"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"hetero2pipe/internal/contention"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
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
// An entry holds both selections of the sweep that filled it — the makespan
// winner and the non-dominated frontier — so the objective is not part of
// the signature and a window is swept once whichever mode plans it first.
//
// Entries are compact. Every plan of one sweep carries the same per-request
// data (profiles, contention classes, intensities, horizontal makespans)
// permuted by its own ordering, and cuts its stage rows determine; an entry
// keeps that data once, in window order, and per plan only the ordering and
// the stage rows. A hit rebuilds caller-owned plans from them: plans are
// mutable (stream callers hand the schedule to the executor, experiments
// rewrite stage rows), so cache and caller never alias. Structural
// model verification guards the digest-based key the same way sameModel
// guards the cost cache's name-based key, so a digest collision degrades to
// a miss, never a wrong plan.

// planKey is the canonical window signature.
type planKey = string

// planSignature builds the canonical signature for a window of models
// planned at the given SoC epoch under the fingerprinted options. The
// objective is not part of it: one entry serves both objectives.
func planSignature(epoch uint64, optsFP string, models []*model.Model) planKey {
	var b strings.Builder
	b.Grow(len(optsFP) + 17 + 17*len(models))
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
	// Nothing about the memoized Algorithm-1 rows appears: they are
	// byte-identical to a refill, so they never change a plan.
	return fmt.Sprintf("q=%g;mit=%t;ws=%t;tail=%t;cont=%t;mem=%t;smem=%t;est=%s",
		o.HighQuantile, o.Mitigation, o.WorkStealing, o.TailOptimization,
		o.ExecOptions.Contention, o.ExecOptions.EnforceMemory, o.ExecOptions.SampleMemory, est)
}

// planEntry is one memoized sweep plus the ordered model identities backing
// its signature (the structural collision guard). An entry is immutable once
// put, so a hit rebuilds its plans outside the cache lock.
type planEntry struct {
	key    planKey
	models []*model.Model
	// The window's per-request data, in window order.
	profiles               []*profile.Profile
	classes                []contention.Class
	intensities, makespans []float64
	winner                 planRows
	frontier               []pointRows
}

// planRows is what sets one plan of a sweep apart from the others: its
// request ordering and its schedule's stage rows, flattened request by
// request.
type planRows struct {
	order  []int
	stages []pipeline.LayerRange
}

// pointRows is one frontier point of an entry.
type pointRows struct {
	rows      planRows
	objective Objective
	candidate int
}

// newPlanEntry compacts one sweep's selections into an entry that shares
// nothing mutable with them. A frontier point that is the winner shares its
// rows.
func newPlanEntry(key planKey, models []*model.Model, sel selection) *planEntry {
	w := sel.winner
	m := len(w.Order)
	e := &planEntry{
		key:         key,
		models:      models,
		profiles:    make([]*profile.Profile, m),
		classes:     make([]contention.Class, m),
		intensities: make([]float64, m),
		makespans:   make([]float64, m),
		winner:      rowsOf(w),
		frontier:    make([]pointRows, len(sel.frontier.Points)),
	}
	for pos, orig := range w.Order {
		e.profiles[orig] = w.Schedule.Profiles[pos]
		e.classes[orig] = w.Classes[pos]
		e.intensities[orig] = w.Intensities[pos]
		e.makespans[orig] = w.HorizontalMakespans[pos]
	}
	for i, pt := range sel.frontier.Points {
		rows := e.winner
		if pt.Plan != w {
			rows = rowsOf(pt.Plan)
		}
		e.frontier[i] = pointRows{rows: rows, objective: pt.Objective, candidate: pt.Candidate}
	}
	return e
}

// rowsOf copies a plan's ordering and stage rows.
func rowsOf(p *Plan) planRows {
	n := 0
	for _, row := range p.Schedule.Stages {
		n += len(row)
	}
	r := planRows{order: slices.Clone(p.Order), stages: make([]pipeline.LayerRange, 0, n)}
	for _, row := range p.Schedule.Stages {
		r.stages = append(r.stages, row...)
	}
	return r
}

// selection rebuilds the selection a caller asked for: the frontier in
// frontier mode, the winner otherwise.
func (e *planEntry) selection(s *soc.SoC, frontier bool) selection {
	if !frontier {
		return selection{winner: e.plan(s, e.winner)}
	}
	f := &Frontier{Points: make([]FrontierPoint, len(e.frontier))}
	for i, pt := range e.frontier {
		f.Points[i] = FrontierPoint{Plan: e.plan(s, pt.rows), Objective: pt.objective, Candidate: pt.candidate}
	}
	return selection{frontier: f}
}

// plan rebuilds a caller-owned plan from r: the window's data permuted by
// r's ordering, r's stage rows, and the cuts those rows determine. The rows
// and the cuts each take one backing array for the whole window.
func (e *planEntry) plan(s *soc.SoC, r planRows) *Plan {
	m := len(r.order)
	if m == 0 {
		return &Plan{Schedule: &pipeline.Schedule{SoC: s}}
	}
	k := len(r.stages) / m
	stages := slices.Clone(r.stages)
	sched := &pipeline.Schedule{
		SoC:      s,
		Profiles: make([]*profile.Profile, m),
		Stages:   make([][]pipeline.LayerRange, m),
	}
	p := &Plan{
		Schedule:            sched,
		Order:               slices.Clone(r.order),
		Classes:             make([]contention.Class, m),
		Intensities:         make([]float64, m),
		Cuts:                make([]pipeline.Cuts, m),
		HorizontalMakespans: make([]float64, m),
	}
	for pos, orig := range r.order {
		sched.Profiles[pos] = e.profiles[orig]
		sched.Stages[pos] = stages[pos*k : (pos+1)*k : (pos+1)*k]
		p.Classes[pos] = e.classes[orig]
		p.Intensities[pos] = e.intensities[orig]
		p.HorizontalMakespans[pos] = e.makespans[orig]
	}
	cuts := make([]int, m*(k+1))
	for i := range p.Cuts {
		p.Cuts[i] = cutsOf(cuts[i*(k+1):(i+1)*(k+1):(i+1)*(k+1)], sched, i)
	}
	return p
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

// get returns the memoized entry for key, or nil. models are the window's
// ordered identities; a signature match with a structural mismatch (a digest
// collision) counts as a miss.
func (c *planCache) get(key planKey, models []*model.Model) *planEntry {
	c.mu.Lock()
	if el, ok := c.entries[key]; ok {
		if e := el.Value.(*planEntry); slices.EqualFunc(e.models, models, sameModel) {
			c.order.MoveToFront(el)
			c.mu.Unlock()
			c.hits.Add(1)
			c.hitC.Inc()
			return e
		}
	}
	c.mu.Unlock()
	c.misses.Add(1)
	c.missC.Inc()
	return nil
}

// put memoizes entry under its key, evicting the least-recently-used entries
// beyond the capacity bound.
func (c *planCache) put(entry *planEntry) {
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
