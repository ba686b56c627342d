package core

import (
	"container/list"
	"encoding/binary"
	"hash/fnv"
	"math"
	"slices"
	"strconv"
	"sync"

	"hetero2pipe/internal/contention"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// Whole-plan memoization. The cost-table cache removes the measurement cost
// of repeated planning, but every PlanProfiles call still pays the full
// two-step optimisation — per-model partition DPs, the LAP mitigation
// reorder, work stealing and the tail local search across ~6 candidate
// orderings. In the stream scheduler's steady state (the same request mix
// window after window in one SoC state) that work recomputes an identical
// plan every time. The plan cache memoizes whole plans behind a canonical
// window signature:
//
//	SoC state identity | ordered model digests
//
// The planner's options are not in it: each planner owns its cache and
// never changes its options, so they would tell no two entries apart.
//
// The state identity (soc.SoC.AppendState) names the degradation state the
// plan was computed in — every processor's throttle, DVFS and offline
// state and the bus derate — so a plan is served exactly in the state it
// was made for, and a return to an earlier state finds that state's plans
// again. No event flushes the cache; its LRU bound retires what no state
// revisits. The model sequence is kept in window order, not sorted: the
// planner's candidate orderings and the Order index mapping depend on the
// order requests arrive in, so two permutations of one multiset are
// distinct planner inputs with distinct (byte-different) plans.
//
// An entry holds both selections of the sweep that filled it — the makespan
// winner and the non-dominated frontier — so the objective is not part of
// the signature and a window is swept once whichever mode plans it first.
//
// Entries are compact. Every plan of one sweep carries the same per-request
// data (contention classes and intensities) permuted by its own ordering;
// an entry keeps that data once, in window order, and per plan only the
// ordering and the stage rows. It keeps no profiles: the signature pins
// each request's model and the SoC state, so the hitting caller's profiles
// hold the tables the entry was swept over, and no entry keeps a state's
// tables alive past the cost cache's retention bound. A hit rebuilds
// caller-owned plans from the entry and the caller's profiles: plans are
// mutable (stream callers hand the schedule to the executor, experiments
// rewrite stage rows), so cache and caller never alias. Structural
// model verification guards the digest-based key the same way sameModel
// guards the cost cache's name-based key, so a digest collision degrades to
// a miss, never a wrong plan.

// planKey is the canonical window signature.
type planKey = string

// planSignature builds the canonical signature for a window of models
// planned in s's current state, in one buffer sized for the nominal state:
// the state identity is empty there, and holds no '|', so the first '|'
// ends it. The objective is not part of it: one entry serves both
// objectives.
func planSignature(s *soc.SoC, models []*model.Model) []byte {
	b := s.AppendState(make([]byte, 0, 17*len(models)))
	for _, m := range models {
		b = strconv.AppendUint(append(b, '|'), modelDigest(m), 16)
	}
	return b
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

// planEntry is one memoized sweep plus the ordered model identities backing
// its signature (the structural collision guard). An entry is immutable once
// put, so a hit rebuilds its plans outside the cache lock.
type planEntry struct {
	key    planKey
	models []*model.Model
	// The window's per-request data, in window order.
	classes     []contention.Class
	intensities []float64
	winner      planRows
	frontier    []pointRows
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
		classes:     make([]contention.Class, m),
		intensities: make([]float64, m),
		winner:      rowsOf(w),
		frontier:    make([]pointRows, len(sel.frontier.Points)),
	}
	for pos, orig := range w.Order {
		e.classes[orig] = w.Classes[pos]
		e.intensities[orig] = w.Intensities[pos]
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

// selection rebuilds the selection a caller asked for over its profiles,
// in window order: the frontier in frontier mode, the winner otherwise.
func (e *planEntry) selection(s *soc.SoC, profiles []*profile.Profile, frontier bool) selection {
	if !frontier {
		return selection{winner: e.plan(s, profiles, e.winner)}
	}
	f := &Frontier{Points: make([]FrontierPoint, len(e.frontier))}
	for i, pt := range e.frontier {
		f.Points[i] = FrontierPoint{Plan: e.plan(s, profiles, pt.rows), Objective: pt.objective, Candidate: pt.candidate}
	}
	return selection{frontier: f}
}

// plan rebuilds a caller-owned plan from r: the profiles and the window's
// data permuted by r's ordering, and r's stage rows over one backing array
// for the whole window.
func (e *planEntry) plan(s *soc.SoC, profiles []*profile.Profile, r planRows) *Plan {
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
		Schedule:    sched,
		Order:       slices.Clone(r.order),
		Classes:     make([]contention.Class, m),
		Intensities: make([]float64, m),
	}
	for pos, orig := range r.order {
		sched.Profiles[pos] = profiles[orig]
		sched.Stages[pos] = stages[pos*k : (pos+1)*k : (pos+1)*k]
		p.Classes[pos] = e.classes[orig]
		p.Intensities[pos] = e.intensities[orig]
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
}

func newPlanCache(capacity int) *planCache {
	return &planCache{cap: capacity, entries: make(map[planKey]*list.Element), order: list.New()}
}

// get returns the memoized entry for key, or nil. models are the window's
// ordered identities; a signature match with a structural mismatch (a digest
// collision) is a miss.
func (c *planCache) get(key []byte, models []*model.Model) *planEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[string(key)]; ok {
		if e := el.Value.(*planEntry); slices.EqualFunc(e.models, models, sameModel) {
			c.order.MoveToFront(el)
			return e
		}
	}
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

// len returns the current entry count (tests inspect the LRU bound).
func (c *planCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// invalidate drops every entry. Only InvalidateCache calls it.
func (c *planCache) invalidate() {
	c.mu.Lock()
	c.entries = make(map[planKey]*list.Element)
	c.order.Init()
	c.mu.Unlock()
}
