package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hetero2pipe/internal/contention"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/parallel"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// Options tune the planner. The zero value disables every optional step;
// use DefaultOptions for the full Hetero²Pipe configuration.
type Options struct {
	// HighQuantile is the percentile threshold splitting requests into
	// high/low contention classes (Sec. V-B).
	HighQuantile float64
	// Mitigation enables Algorithm 2 request re-ordering.
	Mitigation bool
	// WorkStealing enables Algorithm 3 vertical alignment.
	WorkStealing bool
	// TailOptimization enables the tail-bubble local search (the second
	// phase of Sec. V-C).
	TailOptimization bool
	// ExecOptions configure the executor used to evaluate tail-search
	// candidates (and by callers to run the final schedule).
	ExecOptions pipeline.Options
	// Estimator, when set, predicts contention intensity from PMU features
	// (Eq. 1). When nil, intensities are measured directly from solo
	// profiles — the "external profiling" the estimator exists to avoid,
	// kept as a fallback for custom SoCs without a trained model.
	Estimator *contention.Estimator
	// PlanCache, when positive, bounds an LRU memo of whole plans keyed by
	// the canonical window signature (SoC state identity + options
	// fingerprint + ordered model digests; see plancache.go). A window whose
	// signature matches a memoized plan skips partition, mitigation, work
	// stealing and the tail search entirely and receives a deep copy of the
	// cached plan — byte-identical to replanning, since the signature pins
	// every planner input. 0 (the zero value and the default) disables the
	// cache.
	PlanCache int
	// Parallelism bounds the planner's worker pool: per-model partition
	// DPs and whole candidate-ordering passes fan out across at most this
	// many goroutines; everything inside a pass (work-stealing windows,
	// tail-search variants) and the profile lookups run inline. 1 runs
	// strictly sequentially on the caller's goroutine; values ≤ 0 auto-size
	// to runtime.GOMAXPROCS(0). The setting is a pure throughput knob —
	// results are merged in deterministic index order, so the chosen plan is
	// byte-identical at every value (proven by the differential suite; see
	// DESIGN.md §6).
	Parallelism int
	// Metrics, when set, receives planner observability: plan wall-time
	// (planner_plan_seconds), plans completed (planner_plans_total), and
	// the sums of every call's Account — DP cells evaluated
	// (planner_dp_cells_total), cost-cache traffic
	// (planner_cache_{hits,misses}_total), incremental partition reuse
	// (planner_incremental_reuse_total) and, when PlanCache is enabled,
	// whole-plan cache traffic (planner_plan_cache_{hits,misses}_total).
	// Nil disables the registry writes at negligible cost; the lifetime
	// totals behind CacheStats and PlanCacheStats are always live. Note
	// ExecOptions.Metrics is deliberately separate: the planner leaves it
	// nil so its internal candidate evaluations do not pollute executor
	// metrics (see DESIGN.md §9).
	Metrics *obs.Registry
	// Logger, when set, receives a debug record per completed plan (wall
	// time, cache traffic) carrying the active plan span id under the "span"
	// key when tracing is armed. Nil disables logging.
	Logger *slog.Logger
}

// DefaultOptions returns the full Hetero²Pipe configuration.
func DefaultOptions() Options {
	return Options{
		HighQuantile:     0.5,
		Mitigation:       true,
		WorkStealing:     true,
		TailOptimization: true,
		ExecOptions:      pipeline.DefaultOptions(),
		Parallelism:      runtime.GOMAXPROCS(0),
	}
}

// NoCTOptions returns the paper's "Hetero²Pipe (No C/T)" ablation: no
// contention mitigation, no tail optimisation.
func NoCTOptions() Options {
	o := DefaultOptions()
	o.Mitigation = false
	o.TailOptimization = false
	return o
}

// Planner plans multi-DNN pipelines for one SoC. It is safe for concurrent
// use: all mutable state lives in the lock-guarded caches and atomic
// counters.
type Planner struct {
	soc   *soc.SoC
	opts  Options
	cache *costCache
	// planCache memoizes whole plans behind the state-keyed window
	// signature; nil when Options.PlanCache ≤ 0. optsFP is the planner's
	// options fingerprint, computed once — it never changes after
	// construction.
	planCache *planCache
	optsFP    string
	// lapMemo memoizes Algorithm-2 assignments by class-vector content (a
	// pure function of its inputs, so it never invalidates).
	lapMemo *mitigationMemo

	// hits, misses, planHits and planMisses are the lifetime totals behind
	// CacheStats and PlanCacheStats.
	hits, misses, planHits, planMisses atomic.Uint64
	// Registry handles, resolved once at construction (detached no-op
	// instruments when Options.Metrics is nil; the plan-cache pair only
	// when the planner has a plan cache).
	mPlans        *obs.Counter
	mPlanSeconds  *obs.Histogram
	mFrontiers    *obs.Counter
	mFrontierSize *obs.Histogram
	mCacheHits    *obs.Counter
	mCacheMisses  *obs.Counter
	mDPCells      *obs.Counter
	mIncrReuse    *obs.Counter
	mPlanHits     *obs.Counter
	mPlanMisses   *obs.Counter
}

// Account is one planning call's own work. Every entry point returns it
// beside its result, on failure too, and folds it once into the planner's
// lifetime totals and planner_* series (settle). Callers that report per
// window or per run add accounts up, so calls sharing a planner
// concurrently never see each other's work.
type Account struct {
	// CacheHits and CacheMisses count the call's cost-cache lookups: a
	// lookup is a hit when it reuses at least one memoized (model,
	// processor) table and a miss when it measures at least one, so a
	// lookup in a new state that re-measures only the changed processors'
	// tables is both.
	CacheHits, CacheMisses uint64
	// DPCells counts the Algorithm-1 DP cells the call's partitions
	// evaluated; IncrementalReuse the partitions that reused memoized DP
	// rows, fully or resumed mid-table.
	DPCells, IncrementalReuse uint64
	// PlanCacheHits and PlanCacheMisses are the call's whole-plan cache
	// lookup: one hit or one miss when Options.PlanCache is enabled, both
	// zero otherwise.
	PlanCacheHits, PlanCacheMisses uint64
}

// Add adds b's counts to a.
func (a *Account) Add(b Account) {
	a.CacheHits += b.CacheHits
	a.CacheMisses += b.CacheMisses
	a.DPCells += b.DPCells
	a.IncrementalReuse += b.IncrementalReuse
	a.PlanCacheHits += b.PlanCacheHits
	a.PlanCacheMisses += b.PlanCacheMisses
}

// frontierSizeBuckets bound the planner_frontier_size histogram: the
// frontier is capped by the candidate count (6 under DefaultOptions),
// with headroom for custom orderings.
func frontierSizeBuckets() []float64 {
	return []float64{1, 2, 3, 4, 6, 8, 12, 16}
}

// NewPlanner validates the SoC and returns a planner.
func NewPlanner(s *soc.SoC, opts Options) (*Planner, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if opts.HighQuantile < 0 || opts.HighQuantile > 1 {
		return nil, fmt.Errorf("core: high quantile %g outside [0,1]", opts.HighQuantile)
	}
	reg := opts.Metrics
	pl := &Planner{
		soc:           s,
		opts:          opts,
		cache:         newCostCache(s),
		lapMemo:       newMitigationMemo(),
		mPlans:        reg.Counter("planner_plans_total"),
		mPlanSeconds:  reg.Histogram("planner_plan_seconds", obs.LatencyBuckets()),
		mFrontiers:    reg.Counter("planner_frontiers_total"),
		mFrontierSize: reg.Histogram("planner_frontier_size", frontierSizeBuckets()),
		mCacheHits:    reg.Counter("planner_cache_hits_total"),
		mCacheMisses:  reg.Counter("planner_cache_misses_total"),
		mDPCells:      reg.Counter("planner_dp_cells_total"),
		mIncrReuse:    reg.Counter("planner_incremental_reuse_total"),
	}
	if opts.PlanCache > 0 {
		pl.planCache = newPlanCache(opts.PlanCache)
		pl.optsFP = optionsFingerprint(opts)
		pl.mPlanHits = reg.Counter("planner_plan_cache_hits_total")
		pl.mPlanMisses = reg.Counter("planner_plan_cache_misses_total")
	}
	return pl, nil
}

// settle folds one call's account into the planner's lifetime totals and
// its registry: the one place either is written.
func (pl *Planner) settle(a Account) {
	pl.hits.Add(a.CacheHits)
	pl.misses.Add(a.CacheMisses)
	pl.mCacheHits.Add(a.CacheHits)
	pl.mCacheMisses.Add(a.CacheMisses)
	pl.mDPCells.Add(a.DPCells)
	pl.mIncrReuse.Add(a.IncrementalReuse)
	if pl.planCache != nil {
		pl.planHits.Add(a.PlanCacheHits)
		pl.planMisses.Add(a.PlanCacheMisses)
		pl.mPlanHits.Add(a.PlanCacheHits)
		pl.mPlanMisses.Add(a.PlanCacheMisses)
	}
}

// partition is the planner's single Algorithm-1 path. For a profile the cost
// cache assembled, it reuses the DP rows on the profile's table state: with
// all K rows present the memoized cuts are returned and no cell is
// evaluated; otherwise the DP resumes at the first missing row and the
// completed rows are published back. Caller-built profiles fill pooled
// scratch and never touch the memo. The returned cuts are read-only: for a
// cost-cache profile they are the memo's own, returned with the alignment
// memo of their table state (nil for a caller-built profile). The DP's
// cells, and a reuse when rows were reused, go into acc, on failure too,
// and onto a "partition" span that carries dp_cells, resume_stage when rows
// were reused, and the per-stage dp_row spans fillPartitionRows emits.
func (pl *Planner) partition(ctx context.Context, p *profile.Profile, acc *Account) (pipeline.Cuts, float64, *alignMemo, error) {
	n := p.NumLayers()
	k := p.NumProcessors()
	if n == 0 || k == 0 {
		return nil, 0, nil, ErrInfeasiblePartition
	}
	var sp *obs.Span
	if obs.TracingEnabled(ctx) {
		ctx, sp = obs.StartSpan(ctx, "partition", obs.Str("model", p.Model().Name))
	}
	st, memo := pl.cache.rowsFor(p)
	if st == nil {
		cuts, best, cells, err := partitionPooled(ctx, p)
		acc.DPCells += cells
		sp.SetAttrs(obs.Int("dp_cells", int64(cells)))
		sp.End()
		return cuts, best, nil, err
	}

	// Refill stages [from, k), sharing the clean prefix rows read-only.
	from := memo.stages()
	var cells uint64
	var err error
	if from < k {
		rows := make([][]float64, k)
		if memo != nil {
			copy(rows, memo.rows)
		}
		for s := from; s < k; s++ {
			rows[s] = make([]float64, n+1)
		}
		cells, err = fillPartitionRows(ctx, p, rows, from)
		memo = &dpRows{rows: rows, best: rows[k-1][n]}
	}
	acc.DPCells += cells
	sp.SetAttrs(obs.Int("dp_cells", int64(cells)))
	if from > 0 {
		acc.IncrementalReuse++
		sp.SetAttrs(obs.Int("resume_stage", int64(from)))
	}
	sp.End()
	if err != nil {
		return nil, 0, nil, err
	}
	if from < k {
		if !math.IsInf(memo.best, 1) {
			if memo.cuts, err = backtrackCuts(p, memo.rows); err != nil {
				return nil, 0, nil, err
			}
		}
		pl.cache.publishRows(p, memo)
	}
	if memo.cuts == nil {
		return nil, 0, nil, ErrInfeasiblePartition
	}
	return memo.cuts, memo.best, st.align, nil
}

// workers resolves Options.Parallelism to a concrete pool size.
func (pl *Planner) workers() int {
	return parallel.Workers(pl.opts.Parallelism)
}

// Plan is the planner's result: the executable schedule, the request
// ordering it runs in, and each request's contention class and intensity
// (the CLI's plan listing prints them).
type Plan struct {
	// Schedule is the executable pipeline plan (requests in mitigated
	// order).
	Schedule *pipeline.Schedule
	// Order[p] is the original request index now at position p.
	Order []int
	// Classes[p] and Intensities[p] describe the request at position p.
	Classes     []contention.Class
	Intensities []float64
}

// cancelErr wraps a context's termination cause so callers can match both
// the core layer and the underlying context sentinel with errors.Is.
func cancelErr(ctx context.Context) error {
	return fmt.Errorf("core: planning cancelled: %w", ctx.Err())
}

// PlanModels profiles the requests and runs the two-step optimisation:
// horizontal DP partitioning per model (P1), contention-aware re-ordering
// (P3), and vertical alignment with tail optimisation (P2). With maxBatch > 1
// it first coalesces lightweight requests into batches (Appendix D; see
// coalesceLight); otherwise every request is its own group. The returned
// groups parallel the plan's request positions, and the Account is the
// call's own work, its profile lookups included. Cancellation is observed
// between profile lookups, inside the per-model partition DPs, before every
// candidate pass and between tail-search requests, and surfaces as an error
// wrapping ctx.Err().
func (pl *Planner) PlanModels(ctx context.Context, models []*model.Model, maxBatch int) (*Plan, []BatchGroup, Account, error) {
	groups, sel, acc, err := pl.planModels(ctx, models, maxBatch, false)
	if err != nil {
		return nil, nil, acc, err
	}
	return sel.winner, OrderGroups(groups, sel.winner.Order), acc, nil
}

// PlanFrontierModels is PlanModels in frontier mode: instead of collapsing
// the candidate sweep to the min-makespan plan, it returns the whole
// non-dominated frontier over (makespan, throughput, energy, peak memory).
// Every point can carry its own request ordering, so the groups come back
// in window order: apply the selected point's ordering with
// OrderGroups(groups, point.Plan.Order).
func (pl *Planner) PlanFrontierModels(ctx context.Context, models []*model.Model, maxBatch int) (*Frontier, []BatchGroup, Account, error) {
	groups, sel, acc, err := pl.planModels(ctx, models, maxBatch, true)
	if err != nil {
		return nil, nil, acc, err
	}
	return sel.frontier, groups, acc, nil
}

// PlanProfiles plans pre-built profiles, one request each (the planner never
// re-profiles, matching the paper's measure-once workflow).
func (pl *Planner) PlanProfiles(ctx context.Context, profiles []*profile.Profile) (*Plan, Account, error) {
	var acc Account
	sel, err := pl.plan(ctx, profiles, false, &acc)
	pl.settle(acc)
	return sel.winner, acc, err
}

// PlanFrontierProfiles is PlanFrontierModels for pre-built profiles.
func (pl *Planner) PlanFrontierProfiles(ctx context.Context, profiles []*profile.Profile) (*Frontier, Account, error) {
	var acc Account
	sel, err := pl.plan(ctx, profiles, true, &acc)
	pl.settle(acc)
	return sel.frontier, acc, err
}

// planModels looks up the window's group profiles and plans them, settling
// the call's account whether or not either step fails.
func (pl *Planner) planModels(ctx context.Context, models []*model.Model, maxBatch int, frontier bool) ([]BatchGroup, selection, Account, error) {
	var acc Account
	groups, profiles, err := pl.groupProfiles(ctx, models, maxBatch, &acc)
	var sel selection
	if err == nil {
		sel, err = pl.plan(ctx, profiles, frontier, &acc)
	}
	pl.settle(acc)
	return groups, sel, acc, err
}

// groupProfiles forms a window's groups in window order — Appendix-D
// batches when maxBatch > 1, one group per request otherwise — and looks up
// each group's profile in the cost cache, inline, counting the lookups in
// acc: a lookup is a cache hit after the first window, far too small a work
// unit to pay for a goroutine.
func (pl *Planner) groupProfiles(ctx context.Context, models []*model.Model, maxBatch int, acc *Account) ([]BatchGroup, []*profile.Profile, error) {
	var groups []BatchGroup
	if maxBatch > 1 {
		groups = pl.coalesceLight(models, maxBatch)
	} else {
		groups = identityGroups(models)
	}
	profiles := make([]*profile.Profile, len(groups))
	for i, g := range groups {
		if ctx.Err() != nil {
			return nil, nil, cancelErr(ctx)
		}
		p, err := pl.cache.profile(g.Model, acc)
		if err != nil {
			return nil, nil, fmt.Errorf("core: profiling %s: %w", g.Model.Name, err)
		}
		profiles[i] = p
	}
	return groups, profiles, nil
}

// selection is what one candidate sweep yields for the two objectives: the
// makespan winner and the non-dominated frontier. A plan-cache hit rebuilds
// only the one the caller asked for and leaves the other nil.
type selection struct {
	winner   *Plan
	frontier *Frontier
}

// plan is the one planning path behind the four entry points: it owns the
// "plan" span, the plan-cache lookup, the candidate sweep, the plan metrics
// and the debug log record, and frontier picks which selection the caller
// receives. It adds its work to acc, which arrives holding the call's
// profile lookups; the caller settles it. The span of a swept window
// carries the call's cost-cache traffic (hits on cost tables reused from
// earlier plans, misses on fresh measurements); in frontier mode it also
// carries objective="frontier" and frontier_size. With Options.PlanCache
// enabled the span gains a "plan_cache" attribute ("hit" or "miss"), and
// an entry holds both selections of its sweep, so a window planned in one
// mode and then the other is swept once; a hit rebuilds only the selection
// asked for.
func (pl *Planner) plan(ctx context.Context, profiles []*profile.Profile, frontier bool, acc *Account) (selection, error) {
	start := time.Now()
	var sp *obs.Span
	if obs.TracingEnabled(ctx) {
		attrs := []obs.Attr{obs.Int("profiles", int64(len(profiles)))}
		if frontier {
			attrs = append(attrs, obs.Str("objective", "frontier"))
		}
		ctx, sp = obs.StartSpan(ctx, "plan", attrs...)
	}
	var key []byte
	var models []*model.Model
	var entry *planEntry
	if pl.planCache != nil {
		models = make([]*model.Model, len(profiles))
		for i, p := range profiles {
			models[i] = p.Model()
		}
		key = planSignature(pl.soc, pl.optsFP, models)
		if entry = pl.planCache.get(key, models); entry != nil {
			acc.PlanCacheHits++
		} else {
			acc.PlanCacheMisses++
		}
	}
	hit := entry != nil
	var sel selection
	if hit {
		sel = entry.selection(pl.soc, profiles, frontier)
		if frontier {
			sp.SetAttrs(obs.Str("plan_cache", "hit"), obs.Int("frontier_size", int64(sel.frontier.Size())))
		} else {
			sp.SetAttrs(obs.Str("plan_cache", "hit"))
		}
		sp.End()
	} else {
		var err error
		sel, err = pl.sweepWindow(ctx, profiles, acc)
		if sp != nil {
			sp.SetAttrs(
				obs.Int("cache_hits", int64(acc.CacheHits)),
				obs.Int("cache_misses", int64(acc.CacheMisses)))
			if err == nil && frontier {
				sp.SetAttrs(obs.Int("frontier_size", int64(sel.frontier.Size())))
			}
			if pl.planCache != nil {
				sp.SetAttrs(obs.Str("plan_cache", "miss"))
			}
			sp.End()
		}
		if err != nil {
			return selection{}, err
		}
		if pl.planCache != nil {
			pl.planCache.put(newPlanEntry(string(key), models, sel))
		}
	}
	wall := time.Since(start)
	pl.mPlans.Inc()
	if frontier {
		pl.mFrontiers.Inc()
		pl.mFrontierSize.Observe(float64(sel.frontier.Size()))
	}
	pl.mPlanSeconds.ObserveDuration(wall)
	if pl.opts.Logger != nil {
		msg, args := "plan complete", []any{"profiles", len(profiles), "wall", wall}
		if frontier {
			msg, args = "frontier complete", append(args, "points", sel.frontier.Size())
		}
		if hit {
			args = append(args, "plan_cache", "hit")
		} else {
			args = append(args, "cache_hits", acc.CacheHits, "cache_misses", acc.CacheMisses)
		}
		pl.opts.Logger.Log(ctx, slog.LevelDebug, msg, append(args, "span", sp.IDHex())...)
	}
	return sel, nil
}

// sweepWindow runs one candidate sweep and selects from it both the
// makespan winner and the frontier. The first candidate achieving the
// minimal executed makespan wins, exactly as the sequential
// strict-improvement loop decides; the comparison is in float seconds,
// preserving the pre-frontier planner's tie semantics bit for bit. The
// winner need not lie on the frontier: another candidate with the same
// makespan can dominate it on a later axis. The sweep runs in pooled
// scratch, and only the winner and the frontier points become Plans.
func (pl *Planner) sweepWindow(ctx context.Context, profiles []*profile.Profile, acc *Account) (selection, error) {
	if len(profiles) == 0 {
		// An empty window has exactly one (degenerate) plan; the frontier is
		// the one point around it, which keeps Select total.
		empty := &Plan{Schedule: &pipeline.Schedule{SoC: pl.soc}}
		return selection{winner: empty, frontier: &Frontier{Points: []FrontierPoint{{Plan: empty}}}}, nil
	}
	sw := sweepPool.Get().(*sweep)
	defer sweepPool.Put(sw)
	if err := pl.planCandidates(ctx, sw, profiles, acc); err != nil {
		return selection{}, err
	}
	objs := sw.objs
	best := 0
	for ci := 1; ci < len(objs); ci++ {
		if objs[ci].Makespan.Seconds() < objs[best].Makespan.Seconds() {
			best = ci
		}
	}
	plans := sw.plans
	plans[best] = sw.plan(pl.soc, best)
	for ci := range objs {
		if plans[ci] == nil && !dominated(objs, ci) {
			plans[ci] = sw.plan(pl.soc, ci)
		}
	}
	return selection{winner: plans[best], frontier: newFrontier(plans, objs)}, nil
}

// planCandidates runs the full two-step optimisation into sw: every
// candidate ordering's schedule rows and executed objective vector, in
// deterministic candidate order, adding the partitions' work to acc. The
// single-objective planner collapses this sweep to the min-makespan plan;
// frontier mode keeps the non-dominated set — the other axes come for free
// because every candidate is already priced by the executor. When tracing
// is armed, the plan span gains orderings_priced (vertical passes run),
// tail_pruned (tail variants the solo bound skipped) and tail_cutoff (tail
// variants abandoned at the incumbent's makespan).
func (pl *Planner) planCandidates(ctx context.Context, sw *sweep, profiles []*profile.Profile, acc *Account) error {
	m := len(profiles)
	k := pl.soc.NumProcessors()
	sw.profiles, sw.k = profiles, k

	// Step 1 — horizontal: Algorithm 1 once per distinct profile. A window
	// that repeats a model plans one shared cost-cache profile at each
	// occurrence, so a repeat shares its first occurrence's cuts, and their
	// alignment memo, instead of running the same DP again. The distinct DPs share
	// nothing, so they fan out across the worker pool; each writes only its
	// own index, its account included, and the accounts are summed in index
	// order.
	first := resize(sw.first, m)
	distinct := sw.distinct[:0]
	for i, p := range profiles {
		first[i] = i
		for _, d := range distinct {
			if profiles[d] == p {
				first[i] = d
				break
			}
		}
		if first[i] == i {
			distinct = append(distinct, i)
		}
	}
	sw.first, sw.distinct = first, distinct
	cuts := resize(sw.cuts, m)
	makespans := resize(sw.makespans, m)
	aligns := resize(sw.aligns, m)
	parts := resize(sw.parts, len(distinct))
	sw.cuts, sw.makespans, sw.aligns, sw.parts = cuts, makespans, aligns, parts
	clear(parts)
	err := parallel.ForErr(pl.workers(), len(distinct), func(j int) error {
		i := distinct[j]
		c, best, align, err := pl.partition(ctx, profiles[i], &parts[j])
		if err != nil {
			return fmt.Errorf("core: partitioning %s: %w", profiles[i].Model().Name, err)
		}
		cuts[i], makespans[i], aligns[i] = c, best, align
		return nil
	})
	for _, a := range parts {
		acc.Add(a)
	}
	if err != nil {
		return err
	}
	for i, f := range first {
		cuts[i], makespans[i], aligns[i] = cuts[f], makespans[f], aligns[f]
	}

	// Contention intensities and H/L classes.
	intensities := resize(sw.intensities, m)
	for i, p := range profiles {
		if pl.opts.Estimator != nil {
			intensities[i] = pl.opts.Estimator.Intensity(p.Model())
		} else {
			intensities[i] = measuredIntensity(p)
		}
	}
	sw.intensities = intensities
	sw.classes = contention.Classify(intensities, pl.opts.HighQuantile)

	// Step 2a — ordering candidates: identity, a longest-first fill (big
	// horizontal makespans enter the pipeline early so the drain tail is
	// short), shortest-first, and — with mitigation enabled — the
	// Algorithm-2 relocation applied to each. Every candidate runs through
	// the full vertical machinery (step 2b/2c) and the executed makespan
	// picks the winner: the re-ordering is a contention heuristic and the
	// simulator is the oracle.
	pl.candidateOrders(sw, m, k)
	c := len(sw.candidates)
	sw.rows = resize(sw.rows, c*m*k)
	sw.objs = resize(sw.objs, c)
	sw.tails = resize(sw.tails, c)
	sw.plans = resize(sw.plans, c)
	clear(sw.tails) // a duplicate ordering's pass never runs
	clear(sw.plans)

	if err = pl.exactSweep(ctx, sw); err != nil {
		return err
	}
	if sp := obs.SpanFromContext(ctx); sp != nil {
		var tail tailStats
		for _, t := range sw.tails {
			tail.pruned += t.pruned
			tail.cutoff += t.cutoff
		}
		sp.SetAttrs(obs.Int("orderings_priced", int64(sw.priced)),
			obs.Int("tail_pruned", int64(tail.pruned)), obs.Int("tail_cutoff", int64(tail.cutoff)))
	}
	return nil
}

// candidateOrders writes the window's candidate orderings into sw over one
// flat backing: identity; longest-first, a classic pipeline-fill heuristic
// (long requests enter first so the drain tail is short); shortest-first
// (small requests fill quickly, keeping the fast processors fed while the
// heavy tail drains); and, with mitigation, each of those followed by its
// Algorithm-2 relocation. The sorts are stable, so equal horizontal
// makespans keep window order.
func (pl *Planner) candidateOrders(sw *sweep, m, k int) {
	n := 3
	if pl.opts.Mitigation {
		n = 6
	}
	sw.orders = resize(sw.orders, n*m)
	sw.candidates = resize(sw.candidates, n)
	for c := range sw.candidates {
		sw.candidates[c] = sw.orders[c*m : (c+1)*m : (c+1)*m]
	}
	id, longest, shortest := sw.candidates[0], sw.candidates[1], sw.candidates[2]
	for i := range id {
		id[i] = i
	}
	copy(longest, id)
	copy(shortest, id)
	span := sw.makespans
	slices.SortStableFunc(longest, func(a, b int) int { return compareSpans(span[b], span[a]) })
	slices.SortStableFunc(shortest, func(a, b int) int { return compareSpans(span[a], span[b]) })
	if !pl.opts.Mitigation {
		return
	}
	sw.permuted = resize(sw.permuted, m)
	for c, cand := range sw.candidates[:3] {
		for pos, orig := range cand {
			sw.permuted[pos] = sw.classes[orig]
		}
		rel := pl.lapMemo.mitigate(sw.permuted, k)
		out := sw.candidates[3+c]
		for p, r := range rel {
			out[p] = cand[r]
		}
	}
}

// compareSpans orders two horizontal makespans ascending, treating values
// neither below nor above each other as equal, as a less-than sort does.
func compareSpans(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// resize returns buf with length n, reusing its capacity; the entries are
// whatever buf held, so the caller overwrites every one.
func resize[T any](buf []T, n int) []T {
	return slices.Grow(buf[:0], n)[:n]
}

// sweep is one window's candidate sweep: the shared horizontal artefacts
// every vertical pass reads, and the per-candidate results indexed like
// candidates. A pass writes only its own candidate's slots, so concurrent
// passes never share one. Sweeps are pooled; every buffer is re-sized by
// planCandidates, and nothing a sweep returns aliases one.
type sweep struct {
	profiles []*profile.Profile
	// cuts[i] is request i's Algorithm-1 cut vector, read-only (a
	// cost-cache profile's memoized cuts), and aligns[i] the alignment memo
	// of their table state (nil for a caller-built profile); first and
	// distinct map repeated profiles to their first occurrence, and
	// parts[j] is the account of distinct profile j's partition.
	cuts                   []pipeline.Cuts
	aligns                 []*alignMemo
	first, distinct        []int
	parts                  []Account
	classes                []contention.Class
	intensities, makespans []float64
	// candidates[c] is ordering c, over the flat backing orders; permuted
	// holds the classes in one ordering for Algorithm 2.
	candidates [][]int
	orders     []int
	permuted   []contention.Class
	k          int

	// candFirst maps each candidate to the first with its ordering, the one
	// priced; candDistinct lists those.
	candFirst, candDistinct []int
	// rows holds candidate ci's schedule rows, request by request, at
	// [ci·m·k, (ci+1)·m·k); plans[ci] is its Plan once built.
	rows  []pipeline.LayerRange
	objs  []Objective
	tails []tailStats
	plans []*Plan
	// priced counts the vertical passes run.
	priced int
}

var sweepPool = sync.Pool{New: func() any { return new(sweep) }}

// plan builds candidate ci's Plan from its rows and the window's data, the
// way a plan-cache hit rebuilds one. A duplicate ordering reads the rows of
// its first occurrence, which the sweep priced in its place.
func (sw *sweep) plan(s *soc.SoC, ci int) *Plan {
	m, k := len(sw.profiles), sw.k
	f := sw.candFirst[ci]
	e := planEntry{classes: sw.classes, intensities: sw.intensities}
	return e.plan(s, sw.profiles, planRows{order: sw.candidates[ci], stages: sw.rows[f*m*k : (f+1)*m*k]})
}

// tailStats counts the tail variants one search rejected early: pruned
// variants were skipped unpriced by the solo bound, cutoff variants were
// abandoned by Search.Price once they reached the incumbent's makespan.
type tailStats struct{ pruned, cutoff int }

// exactSweep prices every candidate. Candidate orderings often coincide —
// a one-model window has a single ordering, and the sorted and mitigated
// orders regularly reproduce one another — and a vertical pass is a pure
// function of its ordering, so each distinct ordering is priced once, at
// its first occurrence, and later duplicates take that objective and, if
// ever built, that plan's rows. The winner scan and the frontier both
// resolve ties to the lowest candidate index, so a duplicate never
// surfaces in their output.
//
// Whole passes are the planner's unit of fan-out: each runs work stealing
// and the whole tail search, up to m·K+2 priced runs, so passes spread
// across the worker pool while everything inside one — work-stealing
// windows and tail variants — runs inline.
func (pl *Planner) exactSweep(ctx context.Context, sw *sweep) error {
	first := resize(sw.candFirst, len(sw.candidates))
	distinct := sw.candDistinct[:0]
	for ci, cand := range sw.candidates {
		first[ci] = ci
		for _, d := range distinct {
			if slices.Equal(sw.candidates[d], cand) {
				first[ci] = d
				break
			}
		}
		if first[ci] == ci {
			distinct = append(distinct, ci)
		}
	}
	sw.candFirst, sw.candDistinct = first, distinct
	err := parallel.ForErr(pl.workers(), len(distinct), func(j int) error {
		if ctx.Err() != nil {
			return cancelErr(ctx)
		}
		return pl.verticalPass(ctx, sw, distinct[j])
	})
	if err != nil {
		return err
	}
	sw.priced = len(distinct)
	for ci, f := range first {
		sw.objs[ci] = sw.objs[f]
	}
	return nil
}

// passScratch is one vertical pass's working set: the ordered profiles and
// their alignment memos, the ordered and the stolen cut vectors over one
// flat backing, the search that holds and prices the pass's schedule, and
// the tail search's row buffers. Passes in parallel each take their own from
// the pool; a pass copies its result out into the sweep before returning
// it.
type passScratch struct {
	profiles     []*profile.Profile
	aligns       []*alignMemo
	cuts, stolen []pipeline.Cuts
	cutBuf       []int
	search       pipeline.Search
	// inc holds the incumbent's row of the request under tail search while
	// variant rows replace it in the search.
	inc, variant []pipeline.LayerRange
}

var passScratchPool = sync.Pool{New: func() any { return new(passScratch) }}

// cutsFor sizes the ordered profiles, alignment memos and the ordered and
// stolen cut vectors for m requests on k stages.
func (ps *passScratch) cutsFor(m, k int) {
	ps.profiles = resize(ps.profiles, m)
	ps.aligns = resize(ps.aligns, m)
	ps.cutBuf = resize(ps.cutBuf, 2*m*(k+1))
	ps.cuts = resize(ps.cuts, m)
	ps.stolen = resize(ps.stolen, m)
	for i := range m {
		ps.cuts[i] = ps.cutBuf[i*(k+1) : (i+1)*(k+1) : (i+1)*(k+1)]
		ps.stolen[i] = ps.cutBuf[(m+i)*(k+1) : (m+i+1)*(k+1) : (m+i+1)*(k+1)]
	}
}

// verticalPass runs steps 2b (guarded work stealing) and 2c (tail local
// search) for candidate ci and writes its schedule rows, its executed
// objective vector (makespan, throughput, energy, peak memory) and the
// counts of tail variants the search skipped into the sweep. Both steps
// work on one search in pooled scratch and hand on the Cost of the
// schedule they keep, so the pass never prices the same schedule twice.
func (pl *Planner) verticalPass(ctx context.Context, sw *sweep, ci int) error {
	order := sw.candidates[ci]
	m, k := len(order), sw.k
	ps := passScratchPool.Get().(*passScratch)
	defer passScratchPool.Put(ps)
	ps.cutsFor(m, k)
	for pos, orig := range order {
		ps.profiles[pos], ps.aligns[pos] = sw.profiles[orig], sw.aligns[orig]
		copy(ps.cuts[pos], sw.cuts[orig])
	}

	// Step 2b — vertical: Algorithm 3 work stealing per contention window,
	// accepted only when the executed makespan improves: alignment reduces
	// the analytic bubbles (Eq. 3) but can extend co-execution overlap,
	// and the slowdown model arbitrates. Each request enters its window's
	// alignment holding its table state's DP cuts, so the states' memos
	// serve the alignments earlier passes and plan calls computed.
	q := &ps.search
	var cost pipeline.Cost
	var err error
	if pl.opts.WorkStealing {
		for i, c := range ps.cuts {
			copy(ps.stolen[i], c)
		}
		workSteal(ps.profiles, ps.aligns, ps.stolen, k)
		if cost, err = pl.betterCuts(q, ps.profiles, ps.cuts, ps.stolen); err != nil {
			return fmt.Errorf("core: work stealing: %w", err)
		}
	} else {
		if err = q.ResetCuts(pl.soc, ps.profiles, ps.cuts, pl.opts.ExecOptions); err != nil {
			return fmt.Errorf("core: assembling schedule: %w", err)
		}
		if cost, err = q.Price(pipeline.NoCutoff); err != nil {
			return fmt.Errorf("core: evaluating candidate order: %w", err)
		}
	}

	// Step 2c — tail-bubble local search.
	var tail tailStats
	if pl.opts.TailOptimization {
		if cost, tail, err = optimizeTail(ctx, q, cost, ps); err != nil {
			return fmt.Errorf("core: tail optimisation: %w", err)
		}
	}

	rows := sw.rows[ci*m*k : (ci+1)*m*k]
	for i, row := range q.Schedule().Stages {
		copy(rows[i*k:(i+1)*k], row)
	}
	sw.objs[ci], sw.tails[ci] = objectiveOf(cost), tail
	return nil
}

// objectiveOf projects a priced run onto the planner's objective axes.
func objectiveOf(c pipeline.Cost) Objective {
	return Objective{
		Makespan:        c.Makespan,
		Throughput:      c.Throughput(),
		EnergyJoules:    c.EnergyJoules,
		PeakMemoryBytes: c.PeakMemoryBytes,
	}
}

// measuredIntensity is the fallback ground-truth intensity: solo bus demand
// on the reference (big CPU) processor, or the first processor that
// supports the whole model.
func measuredIntensity(p *profile.Profile) float64 {
	n := p.NumLayers()
	ref := -1
	for k := 0; k < p.NumProcessors(); k++ {
		if p.Table(k).Proc().Kind == soc.KindCPUBig && p.Table(k).Supported(0, n-1) {
			ref = k
			break
		}
	}
	if ref < 0 {
		for k := 0; k < p.NumProcessors(); k++ {
			if p.Table(k).Supported(0, n-1) {
				ref = k
				break
			}
		}
	}
	if ref < 0 {
		return 0
	}
	return p.Footprint(ref, 0, n-1).DemandGBps
}

// OptimizeTail performs the Sec. V-C second phase: a local search that, for
// each request, exhaustively evaluates collapsing it onto each single
// processor (search space K per request, as the paper notes) and keeps
// whichever variant minimises the executed makespan. The sweep runs from
// the pipeline tail backwards — the drain region where bubbles concentrate
// — but covers every request, which also lets the planner discover
// whole-model placements (Band-style) whenever slicing a request does not
// pay its copy overheads. The Fig. 8 reference searchers apply the same
// step to every candidate ordering so their search space strictly contains
// the planner's. It returns the winning schedule, a new one that shares
// only sched's profiles and SoC (sched itself is never written), together
// with its executed Result.
func OptimizeTail(sched *pipeline.Schedule, opts pipeline.Options) (*pipeline.Schedule, *pipeline.Result, error) {
	ps := passScratchPool.Get().(*passScratch)
	defer passScratchPool.Put(ps)
	q := &ps.search
	if err := q.Reset(sched, opts); err != nil {
		return nil, nil, err
	}
	base, err := q.Price(pipeline.NoCutoff)
	if err != nil {
		return nil, nil, err
	}
	if _, _, err := optimizeTail(context.Background(), q, base, ps); err != nil {
		return nil, nil, err
	}
	best := q.Schedule().Clone()
	res, err := pipeline.ExecuteContext(context.Background(), best, opts)
	if err != nil {
		return nil, nil, err
	}
	return best, res, nil
}

// optimizeTail is the tail search under a cancellable context, run in
// place on the search q: on return q holds the winning schedule. base is
// q's Cost on entry, so the caller's pricing is not repeated; the returned
// Cost belongs to the winning schedule, so the caller need not price it
// either. Requests are swept tail-first, each building on the incumbent; a
// request's K variants run in processor order and a variant replaces the
// incumbent only on a strict makespan improvement, so ties keep the lowest
// processor. A variant replaces only the request's own row, so q
// re-measures that row alone, and a losing variant's row is overwritten by
// the next one or, after the last, by the incumbent's row kept in ps.
//
// Each variant is priced with the incumbent's makespan as Search.Price's
// cutoff: a variant that reaches it could at best tie, so it is abandoned
// there (counted in the returned cutoff total) with exactly the outcome a
// full run would have had. The variants of one request share every row
// before it, so each Price resumes from the loop state q recorded at that
// row's first look.
//
// A variant is skipped unpriced — and counted in the returned pruned
// total — when its Search.SoloMakespan, the contention-free makespan in the
// executor's order, exceeds the incumbent's makespan by more than 2·m·K
// ns. The executed makespan is never below that bound by m·K ns or more
// (see SoloMakespan), so a skipped variant could not have won, and the
// search adopts exactly the variants an unpruned one would. The bound is at
// least every processor's summed solo load, so it skips every variant a
// processor-load bound would.
func optimizeTail(ctx context.Context, q *pipeline.Search, base pipeline.Cost, ps *passScratch) (pipeline.Cost, tailStats, error) {
	sched := q.Schedule()
	m, k := sched.NumRequests(), sched.NumStages()
	bestCost := base
	margin := time.Duration(2 * m * k)
	inc, variant := resize(ps.inc, k), resize(ps.variant, k)
	ps.inc, ps.variant = inc, variant
	var stats tailStats
	for i := m - 1; i >= 0; i-- {
		if ctx.Err() != nil {
			return pipeline.Cost{}, tailStats{}, cancelErr(ctx)
		}
		p := sched.Profiles[i]
		n := p.NumLayers()
		copy(inc, sched.Stages[i])
		replaced := false // row i holds a losing variant, not inc
		for proc := 0; proc < k; proc++ {
			if !p.Table(proc).Supported(0, n-1) {
				continue
			}
			collapseRow(variant, n, proc)
			if q.SoloMakespan(i, variant) > bestCost.Makespan+margin {
				stats.pruned++
				continue
			}
			if q.SetRow(i, variant) != nil {
				continue // infeasible; keep searching
			}
			replaced = true
			cost, err := q.Price(bestCost.Makespan)
			if err != nil {
				// No better, or infeasible; keep searching.
				if errors.Is(err, pipeline.ErrCutoff) {
					stats.cutoff++
				}
				continue
			}
			bestCost, replaced = cost, false
			copy(inc, variant)
		}
		if replaced {
			if err := q.SetRow(i, inc); err != nil {
				return pipeline.Cost{}, tailStats{}, err
			}
		}
	}
	return bestCost, stats, nil
}

// collapseRow overwrites a request's stage row in place with its
// single-processor placement on proc — the ranges of
// pipeline.SingleProcessor(n, proc, len(row)).RangesOf(), without
// allocating them.
func collapseRow(row []pipeline.LayerRange, n, proc int) {
	for st := range row {
		switch {
		case st < proc:
			row[st] = pipeline.LayerRange{From: 0, To: -1}
		case st == proc:
			row[st] = pipeline.LayerRange{From: 0, To: n - 1}
		default:
			row[st] = pipeline.LayerRange{From: n, To: n - 1}
		}
	}
}

// identityOrder returns 0..m-1.
func identityOrder(m int) []int {
	out := make([]int, m)
	for i := range out {
		out[i] = i
	}
	return out
}

// betterCuts leaves in q whichever cut set executes faster for the fixed
// order (a on ties) and returns its Cost. A stolen set b equal to a is not
// priced again: it cannot beat itself; otherwise q replaces the rows
// stealing moved and prices b with a's makespan as the cutoff, since
// reaching it already loses, and restores a's rows when b loses.
func (pl *Planner) betterCuts(q *pipeline.Search, profiles []*profile.Profile, a, b []pipeline.Cuts) (pipeline.Cost, error) {
	if err := q.ResetCuts(pl.soc, profiles, a, pl.opts.ExecOptions); err != nil {
		return pipeline.Cost{}, err
	}
	costA, err := q.Price(pipeline.NoCutoff)
	if err != nil {
		return pipeline.Cost{}, err
	}
	if slices.EqualFunc(a, b, slices.Equal) {
		return costA, nil
	}
	assembled := true
	for i := range b {
		if !slices.Equal(a[i], b[i]) && q.SetCuts(i, b[i]) != nil {
			// Stolen cuts can in principle assemble into an invalid
			// schedule only through a bug; fall back to the originals
			// defensively.
			assembled = false
			break
		}
	}
	if assembled {
		if costB, err := q.Price(costA.Makespan); err == nil {
			return costB, nil
		}
		// No faster than a (ErrCutoff), or infeasible.
	}
	for i := range a {
		if !slices.Equal(a[i], b[i]) {
			if err := q.SetCuts(i, a[i]); err != nil {
				return pipeline.Cost{}, err
			}
		}
	}
	return costA, nil
}
