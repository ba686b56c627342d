package core

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"runtime"
	"slices"
	"sort"
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
	// (planner_plan_seconds), plans completed (planner_plans_total), DP
	// cells evaluated (planner_dp_cells_total), cost-cache traffic
	// (planner_cache_{hits,misses}_total), incremental partition reuse
	// (planner_incremental_reuse_total) and — when PlanCache is enabled —
	// whole-plan cache traffic (planner_plan_cache_{hits,misses}_total).
	// Nil disables the registry writes
	// at negligible cost; the Planner-level counters (CacheStats, DPCells)
	// are always live. Note ExecOptions.Metrics is deliberately separate:
	// the planner leaves it nil so its internal candidate evaluations do
	// not pollute executor metrics (see DESIGN.md §9).
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
// use: all mutable state lives in the lock-guarded cost cache and atomic
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

	// dpCells accumulates DP cells evaluated across the planner's lifetime.
	dpCells atomic.Uint64
	// incrReuse counts partitions that reused a cost-cache entry's DP rows
	// — fully skipped or resumed mid-table — across the planner's lifetime.
	incrReuse atomic.Uint64
	// Registry handles, resolved once at construction (detached no-op
	// instruments when Options.Metrics is nil).
	mPlans        *obs.Counter
	mDPCells      *obs.Counter
	mPlanSeconds  *obs.Histogram
	mFrontiers    *obs.Counter
	mFrontierSize *obs.Histogram
	mIncrReuse    *obs.Counter
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
		cache:         newCostCache(s, reg),
		lapMemo:       newMitigationMemo(),
		mPlans:        reg.Counter("planner_plans_total"),
		mDPCells:      reg.Counter("planner_dp_cells_total"),
		mPlanSeconds:  reg.Histogram("planner_plan_seconds", obs.LatencyBuckets()),
		mFrontiers:    reg.Counter("planner_frontiers_total"),
		mFrontierSize: reg.Histogram("planner_frontier_size", frontierSizeBuckets()),
		mIncrReuse:    reg.Counter("planner_incremental_reuse_total"),
	}
	if opts.PlanCache > 0 {
		pl.planCache = newPlanCache(opts.PlanCache, reg)
		pl.optsFP = optionsFingerprint(opts)
	}
	return pl, nil
}

// DPCells reports the lifetime count of Algorithm-1 DP cells evaluated by
// this planner — the planning-side work metric behind the run report.
func (pl *Planner) DPCells() uint64 { return pl.dpCells.Load() }

// IncrementalReuse reports the lifetime count of partitions that reused a
// cost-cache entry's DP rows — fully reused or resumed mid-table.
func (pl *Planner) IncrementalReuse() uint64 { return pl.incrReuse.Load() }

// partition is the planner's single Algorithm-1 path. For a profile the cost
// cache assembled, it reuses the DP rows on the profile's table state: with
// all K rows present the memoized cuts are returned and no cell is
// evaluated; otherwise the DP resumes at the first missing row and the
// completed rows are published back. Caller-built profiles fill pooled
// scratch and never touch the memo. The DP's cells accumulate into the
// planner's lifetime counter and registry, under a "partition" span that
// carries dp_cells, resume_stage when rows were reused, and the per-stage
// dp_row spans fillPartitionRows emits.
func (pl *Planner) partition(ctx context.Context, p *profile.Profile) (pipeline.Cuts, float64, error) {
	n := p.NumLayers()
	k := p.NumProcessors()
	if n == 0 || k == 0 {
		return nil, 0, ErrInfeasiblePartition
	}
	var sp *obs.Span
	if obs.TracingEnabled(ctx) {
		ctx, sp = obs.StartSpan(ctx, "partition", obs.Str("model", p.Model().Name))
	}
	memo, own := pl.cache.rowsFor(p)
	if !own {
		cuts, best, cells, err := partitionPooled(ctx, p)
		pl.countCells(sp, cells)
		sp.End()
		return cuts, best, err
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
	pl.countCells(sp, cells)
	if from > 0 {
		pl.incrReuse.Add(1)
		pl.mIncrReuse.Inc()
		sp.SetAttrs(obs.Int("resume_stage", int64(from)))
	}
	sp.End()
	if err != nil {
		return nil, 0, err
	}
	if from < k {
		if !math.IsInf(memo.best, 1) {
			if memo.cuts, err = backtrackCuts(p, memo.rows); err != nil {
				return nil, 0, err
			}
		}
		pl.cache.publishRows(p, memo)
	}
	if memo.cuts == nil {
		return nil, 0, ErrInfeasiblePartition
	}
	return slices.Clone(memo.cuts), memo.best, nil
}

// countCells adds one partition's evaluated DP cells to the planner's
// lifetime counter, its registry and the partition span.
func (pl *Planner) countCells(sp *obs.Span, cells uint64) {
	pl.dpCells.Add(cells)
	pl.mDPCells.Add(cells)
	sp.SetAttrs(obs.Int("dp_cells", int64(cells)))
}

// workers resolves Options.Parallelism to a concrete pool size.
func (pl *Planner) workers() int {
	return parallel.Workers(pl.opts.Parallelism)
}

// Plan is the planner's result: the executable schedule plus the
// intermediate artefacts (ordering, classes, per-model cuts) the experiments
// inspect.
type Plan struct {
	// Schedule is the executable pipeline plan (requests in mitigated
	// order).
	Schedule *pipeline.Schedule
	// Order[p] is the original request index now at position p.
	Order []int
	// Classes[p] and Intensities[p] describe the request at position p.
	Classes     []contention.Class
	Intensities []float64
	// Cuts[p] are the stage boundaries of the request at position p.
	Cuts []pipeline.Cuts
	// HorizontalMakespans[p] is the Algorithm-1 bottleneck stage time (s)
	// of the request at position p.
	HorizontalMakespans []float64
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
// groups parallel the plan's request positions. Cancellation is observed
// between profile lookups, inside the per-model partition DPs, before every
// candidate pass and between tail-search requests, and surfaces as an error
// wrapping ctx.Err().
func (pl *Planner) PlanModels(ctx context.Context, models []*model.Model, maxBatch int) (*Plan, []BatchGroup, error) {
	groups, profiles, err := pl.groupProfiles(ctx, models, maxBatch)
	if err != nil {
		return nil, nil, err
	}
	plan, err := pl.PlanProfiles(ctx, profiles)
	if err != nil {
		return nil, nil, err
	}
	return plan, OrderGroups(groups, plan.Order), nil
}

// PlanFrontierModels is PlanModels in frontier mode: instead of collapsing
// the candidate sweep to the min-makespan plan, it returns the whole
// non-dominated frontier over (makespan, throughput, energy, peak memory).
// Every point can carry its own request ordering, so the groups come back
// in window order: apply the selected point's ordering with
// OrderGroups(groups, point.Plan.Order).
func (pl *Planner) PlanFrontierModels(ctx context.Context, models []*model.Model, maxBatch int) (*Frontier, []BatchGroup, error) {
	groups, profiles, err := pl.groupProfiles(ctx, models, maxBatch)
	if err != nil {
		return nil, nil, err
	}
	f, err := pl.PlanFrontierProfiles(ctx, profiles)
	if err != nil {
		return nil, nil, err
	}
	return f, groups, nil
}

// PlanProfiles plans pre-built profiles, one request each (the planner never
// re-profiles, matching the paper's measure-once workflow).
func (pl *Planner) PlanProfiles(ctx context.Context, profiles []*profile.Profile) (*Plan, error) {
	sel, err := pl.plan(ctx, profiles, false)
	return sel.winner, err
}

// PlanFrontierProfiles is PlanFrontierModels for pre-built profiles.
func (pl *Planner) PlanFrontierProfiles(ctx context.Context, profiles []*profile.Profile) (*Frontier, error) {
	sel, err := pl.plan(ctx, profiles, true)
	return sel.frontier, err
}

// groupProfiles forms a window's groups in window order — Appendix-D
// batches when maxBatch > 1, one group per request otherwise — and looks up
// each group's profile in the cost cache, inline: a lookup is a cache hit
// after the first window, far too small a work unit to pay for a goroutine.
func (pl *Planner) groupProfiles(ctx context.Context, models []*model.Model, maxBatch int) ([]BatchGroup, []*profile.Profile, error) {
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
		p, err := pl.Profile(g.Model)
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
// "plan" span, the plan-cache lookup, the candidate sweep, the planner
// metrics and the debug log record, and frontier picks which selection the
// caller receives. The span carries, for a swept window, the cost-cache
// traffic of this plan (hits on cost tables reused from earlier plans,
// misses on fresh measurements); in frontier mode it also carries
// objective="frontier" and frontier_size. With Options.PlanCache enabled
// the span gains a "plan_cache" attribute ("hit" or "miss"), and an entry
// holds both selections of its sweep, so a window planned in one mode and
// then the other is swept once; a hit rebuilds only the selection asked for.
func (pl *Planner) plan(ctx context.Context, profiles []*profile.Profile, frontier bool) (selection, error) {
	start := time.Now()
	hits0, misses0 := pl.CacheStats()
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
		entry = pl.planCache.get(key, models)
	}
	hit := entry != nil
	var sel selection
	var hits1, misses1 uint64
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
		sel, err = pl.sweepWindow(ctx, profiles)
		hits1, misses1 = pl.CacheStats()
		if sp != nil {
			sp.SetAttrs(
				obs.Int("cache_hits", int64(hits1-hits0)),
				obs.Int("cache_misses", int64(misses1-misses0)))
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
			args = append(args, "cache_hits", hits1-hits0, "cache_misses", misses1-misses0)
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
// makespan can dominate it on a later axis.
func (pl *Planner) sweepWindow(ctx context.Context, profiles []*profile.Profile) (selection, error) {
	if len(profiles) == 0 {
		// An empty window has exactly one (degenerate) plan; the frontier is
		// the one point around it, which keeps Select total.
		empty := &Plan{Schedule: &pipeline.Schedule{SoC: pl.soc}}
		return selection{winner: empty, frontier: &Frontier{Points: []FrontierPoint{{Plan: empty}}}}, nil
	}
	plans, objs, err := pl.planCandidates(ctx, profiles)
	if err != nil {
		return selection{}, err
	}
	best := 0
	for ci := 1; ci < len(plans); ci++ {
		if objs[ci].Makespan.Seconds() < objs[best].Makespan.Seconds() {
			best = ci
		}
	}
	return selection{winner: plans[best], frontier: newFrontier(plans, objs)}, nil
}

// planCandidates runs the full two-step optimisation and returns every
// candidate ordering's plan with its executed objective vector, in
// deterministic candidate order. The single-objective planner collapses
// this sweep to the min-makespan plan; frontier mode keeps the
// non-dominated set — the other axes come for free because every candidate
// is already priced by the executor. When tracing is armed, the plan span
// gains orderings_priced (vertical passes run), tail_pruned (tail variants
// the load bound skipped) and tail_cutoff (tail variants abandoned at the
// incumbent's makespan).
func (pl *Planner) planCandidates(ctx context.Context, profiles []*profile.Profile) ([]*Plan, []Objective, error) {
	m := len(profiles)
	k := pl.soc.NumProcessors()

	// Step 1 — horizontal: Algorithm 1 once per distinct profile. A window
	// that repeats a model plans one shared cost-cache profile at each
	// occurrence, so a repeat copies its first occurrence's cuts instead of
	// running the same DP again. The distinct DPs share nothing, so they fan
	// out across the worker pool; each writes only its own index.
	first := make([]int, m)
	var distinct []int
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
	cuts := make([]pipeline.Cuts, m)
	makespans := make([]float64, m)
	err := parallel.ForErr(pl.workers(), len(distinct), func(j int) error {
		i := distinct[j]
		c, best, err := pl.partition(ctx, profiles[i])
		if err != nil {
			return fmt.Errorf("core: partitioning %s: %w", profiles[i].Model().Name, err)
		}
		cuts[i] = c
		makespans[i] = best
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	for i, f := range first {
		if f != i {
			cuts[i] = slices.Clone(cuts[f])
			makespans[i] = makespans[f]
		}
	}

	// Contention intensities and H/L classes.
	intensities := make([]float64, m)
	for i, p := range profiles {
		if pl.opts.Estimator != nil {
			intensities[i] = pl.opts.Estimator.Intensity(p.Model())
		} else {
			intensities[i] = measuredIntensity(p)
		}
	}
	classes := contention.Classify(intensities, pl.opts.HighQuantile)

	// Step 2a — ordering candidates: identity, a longest-first fill (big
	// horizontal makespans enter the pipeline early so the drain tail is
	// short), shortest-first, and — with mitigation enabled — the
	// Algorithm-2 relocation applied to each. Every candidate runs through
	// the full vertical machinery (step 2b/2c) and the executed makespan
	// picks the winner: the re-ordering is a contention heuristic and the
	// simulator is the oracle.
	candidates := [][]int{identityOrder(m), longestFirstOrder(makespans), shortestFirstOrder(makespans)}
	if pl.opts.Mitigation {
		base := len(candidates)
		for _, cand := range candidates[:base] {
			mitigated := pl.lapMemo.mitigate(permuteClasses(classes, cand), k)
			candidates = append(candidates, composeOrders(cand, mitigated))
		}
	}

	sw := &sweep{
		profiles: profiles, cuts: cuts, classes: classes,
		intensities: intensities, makespans: makespans,
		candidates: candidates, k: k,
		plans: make([]*Plan, len(candidates)),
		objs:  make([]Objective, len(candidates)),
		tails: make([]tailStats, len(candidates)),
	}
	if err = pl.exactSweep(ctx, sw); err != nil {
		return nil, nil, err
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
	return sw.plans, sw.objs, nil
}

// sweep is one window's candidate sweep: the shared horizontal artefacts
// every vertical pass reads, and the per-candidate results indexed like
// candidates. A pass writes only its own candidate's slots, so concurrent
// passes never share one.
type sweep struct {
	profiles               []*profile.Profile
	cuts                   []pipeline.Cuts
	classes                []contention.Class
	intensities, makespans []float64
	candidates             [][]int
	k                      int

	plans []*Plan
	objs  []Objective
	tails []tailStats
	// priced counts the vertical passes run.
	priced int
}

// tailStats counts the tail variants one search rejected early: pruned
// variants were skipped unpriced by the load bound, cutoff variants were
// abandoned by Price once they reached the incumbent's makespan.
type tailStats struct{ pruned, cutoff int }

// exactSweep prices every candidate. Candidate orderings often coincide —
// a one-model window has a single ordering, and the sorted and mitigated
// orders regularly reproduce one another — and a vertical pass is a pure
// function of its ordering, so each distinct ordering is priced once, at
// its first occurrence, and later duplicates take that plan and objective.
// The winner scan and the frontier both resolve ties to the lowest
// candidate index, so a duplicate never surfaces in their output.
//
// Whole passes are the planner's unit of fan-out: each runs work stealing
// and the whole tail search, up to m·K+2 priced runs, so passes spread
// across the worker pool while everything inside one — work-stealing
// windows and tail variants — runs inline.
func (pl *Planner) exactSweep(ctx context.Context, sw *sweep) error {
	first := make([]int, len(sw.candidates))
	var distinct []int
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
	err := parallel.ForErr(pl.workers(), len(distinct), func(j int) error {
		if ctx.Err() != nil {
			return cancelErr(ctx)
		}
		ci := distinct[j]
		plan, obj, tail, err := pl.verticalPass(ctx, sw, sw.candidates[ci])
		if err != nil {
			return err
		}
		sw.plans[ci], sw.objs[ci], sw.tails[ci] = plan, obj, tail
		return nil
	})
	if err != nil {
		return err
	}
	sw.priced = len(distinct)
	for ci, f := range first {
		if f != ci {
			sw.plans[ci], sw.objs[ci] = sw.plans[f], sw.objs[f]
		}
	}
	return nil
}

// verticalPass runs steps 2b (guarded work stealing) and 2c (tail local
// search) for one candidate ordering and returns the plan, its executed
// objective vector (makespan, throughput, energy, peak memory) and the
// counts of tail variants the search skipped. Each step hands the Cost of
// the schedule it keeps to the next, so the pass never prices the same
// schedule twice.
func (pl *Planner) verticalPass(ctx context.Context, sw *sweep, order []int) (*Plan, Objective, tailStats, error) {
	m := len(order)
	ordProfiles := make([]*profile.Profile, m)
	ordCuts := make([]pipeline.Cuts, m)
	ordClasses := make([]contention.Class, m)
	ordIntensities := make([]float64, m)
	ordMakespans := make([]float64, m)
	for pos, orig := range order {
		ordProfiles[pos] = sw.profiles[orig]
		ordCuts[pos] = slices.Clone(sw.cuts[orig])
		ordClasses[pos] = sw.classes[orig]
		ordIntensities[pos] = sw.intensities[orig]
		ordMakespans[pos] = sw.makespans[orig]
	}

	// Step 2b — vertical: Algorithm 3 work stealing per contention window,
	// accepted only when the executed makespan improves: alignment reduces
	// the analytic bubbles (Eq. 3) but can extend co-execution overlap,
	// and the slowdown model arbitrates.
	var sched *pipeline.Schedule
	var cost pipeline.Cost
	var err error
	if pl.opts.WorkStealing {
		stolen := make([]pipeline.Cuts, m)
		for i := range ordCuts {
			stolen[i] = slices.Clone(ordCuts[i])
		}
		WorkSteal(ordProfiles, stolen, sw.k)
		ordCuts, sched, cost, err = pl.betterCuts(ordProfiles, ordCuts, stolen)
		if err != nil {
			return nil, Objective{}, tailStats{}, fmt.Errorf("core: work stealing: %w", err)
		}
	} else {
		if sched, err = pipeline.FromCuts(pl.soc, ordProfiles, ordCuts); err != nil {
			return nil, Objective{}, tailStats{}, fmt.Errorf("core: assembling schedule: %w", err)
		}
		if cost, err = pipeline.Price(sched, pl.opts.ExecOptions, pipeline.NoCutoff); err != nil {
			return nil, Objective{}, tailStats{}, fmt.Errorf("core: evaluating candidate order: %w", err)
		}
	}

	// Step 2c — tail-bubble local search.
	var tail tailStats
	if pl.opts.TailOptimization {
		sched, cost, tail, err = optimizeTail(ctx, sched, cost, pl.opts.ExecOptions)
		if err != nil {
			return nil, Objective{}, tailStats{}, fmt.Errorf("core: tail optimisation: %w", err)
		}
		for i := range ordCuts {
			ordCuts[i] = cutsOf(make(pipeline.Cuts, sw.k+1), sched, i)
		}
	}

	return &Plan{
		Schedule:            sched,
		Order:               order,
		Classes:             ordClasses,
		Intensities:         ordIntensities,
		Cuts:                ordCuts,
		HorizontalMakespans: ordMakespans,
	}, objectiveOf(cost), tail, nil
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
// the planner's. It returns the winning schedule together with its
// executed Result.
func OptimizeTail(sched *pipeline.Schedule, opts pipeline.Options) (*pipeline.Schedule, *pipeline.Result, error) {
	base, err := pipeline.Price(sched, opts, pipeline.NoCutoff)
	if err != nil {
		return nil, nil, err
	}
	best, _, _, err := optimizeTail(context.Background(), sched, base, opts)
	if err != nil {
		return nil, nil, err
	}
	res, err := pipeline.ExecuteContext(context.Background(), best, opts)
	if err != nil {
		return nil, nil, err
	}
	return best, res, nil
}

// optimizeTail is the tail search under a cancellable context. base is
// sched's Cost, so the caller's pricing of sched is not repeated; the
// returned Cost belongs to the returned schedule, so the caller need not
// price it either. Requests are swept tail-first, each building on the
// incumbent; a request's K variants run in processor order and a variant
// replaces the incumbent only on a strict makespan improvement, so ties
// keep the lowest processor.
//
// Each variant is priced with the incumbent's makespan as Price's cutoff:
// a variant that reaches it could at best tie, so it is abandoned there
// (counted in the returned cutoff total) with exactly the outcome a full
// run would have had.
//
// A variant is skipped unpriced — and counted in the returned pruned
// total — when its processor-load bound exceeds the incumbent's makespan
// by more than 2·m·K ns. The bound is the heaviest processor's summed solo
// StageTime with the request collapsed onto its processor. It never
// overestimates the executed makespan: a processor runs one slice at a
// time and co-execution only dilates a slice (slowdown ≥ 1). The margin
// covers the executor's clock, which truncates each step to whole
// nanoseconds: a step loses under 1 ns and completes at least one of the
// at most m·K slices. A skipped variant therefore could not have won, and
// the search adopts exactly the variants an unpruned one would.
func optimizeTail(ctx context.Context, sched *pipeline.Schedule, base pipeline.Cost, opts pipeline.Options) (*pipeline.Schedule, pipeline.Cost, tailStats, error) {
	m, k := sched.NumRequests(), sched.NumStages()
	best, bestCost := sched, base
	margin := time.Duration(2 * m * k)
	// load[q] is the incumbent's summed solo stage time on processor q;
	// rest[q] is the same without the request under search.
	load := make([]time.Duration, k)
	rest := make([]time.Duration, k)
	for i := 0; i < m; i++ {
		for q := range load {
			load[q] += best.StageTime(i, q)
		}
	}
	// cand is the variant under evaluation: a private clone of the
	// incumbent whose row i is overwritten per processor, reused until a
	// variant wins and becomes the incumbent itself.
	var cand *pipeline.Schedule
	var stats tailStats
	for i := m - 1; i >= 0; i-- {
		if ctx.Err() != nil {
			return nil, pipeline.Cost{}, tailStats{}, cancelErr(ctx)
		}
		p := sched.Profiles[i]
		n := p.NumLayers()
		for q := range rest {
			rest[q] = load[q] - best.StageTime(i, q)
		}
		for proc := 0; proc < k; proc++ {
			if !p.Table(proc).Supported(0, n-1) {
				continue
			}
			solo := p.SliceTime(proc, 0, n-1)
			if collapsedLoad(rest, proc, solo) > bestCost.Makespan+margin {
				stats.pruned++
				continue
			}
			if cand == nil {
				cand = best.Clone()
			}
			collapseRow(cand.Stages[i], n, proc)
			cost, err := pipeline.Price(cand, opts, bestCost.Makespan)
			if err != nil {
				// No better, or infeasible; keep searching.
				if errors.Is(err, pipeline.ErrCutoff) {
					stats.cutoff++
				}
				continue
			}
			best, bestCost, cand = cand, cost, nil
			copy(load, rest)
			load[proc] += solo
		}
		if cand != nil {
			copy(cand.Stages[i], best.Stages[i])
		}
	}
	return best, bestCost, stats, nil
}

// collapsedLoad is the processor-load bound of a tail variant: the heaviest
// processor's solo load once the request under search, whose solo time on
// proc is solo, runs wholly on proc (rest excludes that request).
func collapsedLoad(rest []time.Duration, proc int, solo time.Duration) time.Duration {
	var bound time.Duration
	for q, l := range rest {
		if q == proc {
			l += solo
		}
		bound = max(bound, l)
	}
	return bound
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

// longestFirstOrder sorts request indices by descending horizontal
// makespan, a classic pipeline-fill heuristic: long requests enter first so
// the drain tail is short.
func longestFirstOrder(makespans []float64) []int {
	out := identityOrder(len(makespans))
	sort.SliceStable(out, func(a, b int) bool {
		return makespans[out[a]] > makespans[out[b]]
	})
	return out
}

// shortestFirstOrder sorts request indices by ascending horizontal
// makespan: small requests fill quickly, keeping the fast processors fed
// while the heavy tail drains.
func shortestFirstOrder(makespans []float64) []int {
	out := identityOrder(len(makespans))
	sort.SliceStable(out, func(a, b int) bool {
		return makespans[out[a]] < makespans[out[b]]
	})
	return out
}

// permuteClasses applies an ordering to a class slice.
func permuteClasses(classes []contention.Class, order []int) []contention.Class {
	out := make([]contention.Class, len(order))
	for pos, orig := range order {
		out[pos] = classes[orig]
	}
	return out
}

// composeOrders returns the ordering that first applies base and then the
// relative permutation rel: out[p] = base[rel[p]].
func composeOrders(base, rel []int) []int {
	out := make([]int, len(base))
	for p, r := range rel {
		out[p] = base[r]
	}
	return out
}

// betterCuts returns whichever cut set executes faster for the fixed order
// (a on ties), with its assembled schedule and Cost. A stolen set b equal
// to a is not priced again: it cannot beat itself; otherwise b is priced
// with a's makespan as the cutoff, since reaching it already loses.
func (pl *Planner) betterCuts(profiles []*profile.Profile, a, b []pipeline.Cuts) ([]pipeline.Cuts, *pipeline.Schedule, pipeline.Cost, error) {
	schedA, err := pipeline.FromCuts(pl.soc, profiles, a)
	if err != nil {
		return nil, nil, pipeline.Cost{}, err
	}
	costA, err := pipeline.Price(schedA, pl.opts.ExecOptions, pipeline.NoCutoff)
	if err != nil {
		return nil, nil, pipeline.Cost{}, err
	}
	if slices.EqualFunc(a, b, slices.Equal) {
		return a, schedA, costA, nil
	}
	schedB, err := pipeline.FromCuts(pl.soc, profiles, b)
	if err != nil {
		// Stolen cuts can in principle assemble into an invalid schedule
		// only through a bug; fall back to the originals defensively.
		return a, schedA, costA, nil
	}
	costB, err := pipeline.Price(schedB, pl.opts.ExecOptions, costA.Makespan)
	if err != nil {
		// No faster than a (ErrCutoff), or infeasible.
		return a, schedA, costA, nil
	}
	return b, schedB, costB, nil
}

// cutsOf recovers the boundary vector of request i from a schedule into c,
// which holds one entry per stage plus one, and returns c.
func cutsOf(c pipeline.Cuts, sched *pipeline.Schedule, i int) pipeline.Cuts {
	k := len(c) - 1
	next := 0
	for st := 0; st < k; st++ {
		c[st] = next
		r := sched.Stages[i][st]
		if !r.Empty() {
			next = r.To + 1
		}
	}
	c[k] = sched.Profiles[i].NumLayers()
	return c
}
