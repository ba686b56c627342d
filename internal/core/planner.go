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
	// the canonical window signature (SoC degradation epoch + options
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
	// IncrementalReplan, when true (the default via DefaultOptions), keeps a
	// per-model memo of the Algorithm-1 DP state — every per-stage S* row,
	// the choice tables and the backtracked cuts — and, after a degradation
	// event touching processor set P, resumes each model's DP from
	// stage min(P) instead of refilling the whole table: stage k's row reads
	// only the cost tables of processors ≤ k and the previous row, so rows
	// below the first affected processor are bit-identical and are reused
	// verbatim (see DESIGN.md §14). Bus-only epochs (bandwidth squeezes)
	// reuse entire partitions — solo tables are bus-independent. The output
	// is byte-identical to a from-scratch replan at every event sequence
	// (pinned by the differential suite), so the flag is deliberately absent
	// from the plan-cache options fingerprint.
	IncrementalReplan bool
	// BeamWidth, when positive and below the candidate-ordering count, prunes
	// the candidate sweep: every candidate is first priced by a cheap proxy
	// (its DP-cut schedule executed as-is, no stealing or tail search), only
	// the BeamWidth best-proxy candidates run the full vertical pass, and the
	// sweep then escalates through the remaining candidates in proxy order
	// until the best executed makespan is within (1+BeamEpsilon) of the
	// window's makespan lower bound. Because the lower bound is also a lower
	// bound on the exact planner's makespan, the returned plan is provably
	// within (1+BeamEpsilon)× of exact — unconditionally (see DESIGN.md §14).
	// Zero (and any width ≥ the candidate count, absent a deadline) falls
	// through to the exact sweep, byte-identically.
	BeamWidth int
	// BeamEpsilon is the beam's relative regret bound ε ≥ 0: escalation
	// stops once best ≤ (1+ε)·lower-bound. 0 keeps escalating until the
	// bound is met exactly or every candidate is priced — still cheaper than
	// the exact sweep whenever the bound closes early, and identical in
	// result quality otherwise.
	BeamEpsilon float64
	// AnytimeDeadline, when positive, bounds the beam sweep's wall-clock
	// time: after the first BeamWidth candidates (at least one), escalation
	// stops when the deadline has elapsed, whatever the regret bound says.
	// The deadline trades the determinism invariant for latency — two runs
	// under load may prune at different points — so it is off by default and
	// excluded from the differential suite's byte-identity claims.
	AnytimeDeadline time.Duration
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
		HighQuantile:      0.5,
		Mitigation:        true,
		WorkStealing:      true,
		TailOptimization:  true,
		IncrementalReplan: true,
		ExecOptions:       pipeline.DefaultOptions(),
		Parallelism:       runtime.GOMAXPROCS(0),
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
	// planCache memoizes whole plans behind the epoch-keyed window
	// signature; nil when Options.PlanCache ≤ 0. optsFP is the planner's
	// options fingerprint, computed once — it never changes after
	// construction.
	planCache *planCache
	optsFP    string
	// partMemo memoizes per-model Algorithm-1 DP state for incremental
	// replanning; nil when Options.IncrementalReplan is off. lapMemo
	// memoizes Algorithm-2 assignments by class-vector content (a pure
	// function of its inputs, so it never invalidates).
	partMemo *partitionMemo
	lapMemo  *mitigationMemo

	// dpCells accumulates DP cells evaluated across the planner's lifetime.
	dpCells atomic.Uint64
	// incrReuse counts partitions that reused memoized DP state — fully
	// skipped or resumed mid-table — across the planner's lifetime.
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
	if opts.BeamWidth < 0 {
		return nil, fmt.Errorf("core: beam width %d negative", opts.BeamWidth)
	}
	if opts.BeamEpsilon < 0 || math.IsNaN(opts.BeamEpsilon) || math.IsInf(opts.BeamEpsilon, 0) {
		return nil, fmt.Errorf("core: beam epsilon %g not a finite non-negative value", opts.BeamEpsilon)
	}
	if opts.AnytimeDeadline < 0 {
		return nil, fmt.Errorf("core: anytime deadline %v negative", opts.AnytimeDeadline)
	}
	reg := opts.Metrics
	pl := &Planner{
		soc:           s,
		opts:          opts,
		cache:         newCostCache(s, reg),
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
	if opts.IncrementalReplan {
		pl.partMemo = newPartitionMemo()
		pl.lapMemo = newMitigationMemo()
	}
	return pl, nil
}

// DPCells reports the lifetime count of Algorithm-1 DP cells evaluated by
// this planner — the planning-side work metric behind the run report.
func (pl *Planner) DPCells() uint64 { return pl.dpCells.Load() }

// partition runs the Algorithm-1 DP for one profile while accumulating the
// evaluated-cell count into the planner's lifetime counter and registry. The
// DP runs under a "partition" span whose children are the per-stage dp_row
// spans partitionTable emits.
func (pl *Planner) partition(ctx context.Context, p *profile.Profile) (pipeline.Cuts, float64, error) {
	var sp *obs.Span
	if obs.TracingEnabled(ctx) {
		ctx, sp = obs.StartSpan(ctx, "partition", obs.Str("model", p.Model().Name))
	}
	scr, best, cells, err := partitionTable(ctx, p)
	pl.dpCells.Add(cells)
	pl.mDPCells.Add(cells)
	sp.SetAttrs(obs.Int("dp_cells", int64(cells)))
	sp.End()
	if err != nil {
		return nil, 0, err
	}
	cuts, best, err := backtrackCuts(p, scr.choice, best)
	putDPScratch(scr)
	return cuts, best, err
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
// (P3), and vertical alignment with tail optimisation (P2).
func (pl *Planner) PlanModels(models []*model.Model) (*Plan, error) {
	return pl.PlanModelsContext(context.Background(), models)
}

// PlanModelsContext is PlanModels under a cancellable context: cancellation
// is observed between profile lookups, inside the per-model partition DPs,
// before every candidate pass and between tail-search requests, and
// surfaces as an error wrapping ctx.Err().
func (pl *Planner) PlanModelsContext(ctx context.Context, models []*model.Model) (*Plan, error) {
	profiles, err := pl.profileAll(ctx, models)
	if err != nil {
		return nil, err
	}
	return pl.PlanProfilesContext(ctx, profiles)
}

// profileAll looks up every model's profile in the cost cache, inline: a
// lookup is a cache hit after the first window, far too small a work unit
// to pay for a goroutine.
func (pl *Planner) profileAll(ctx context.Context, models []*model.Model) ([]*profile.Profile, error) {
	profiles := make([]*profile.Profile, len(models))
	for i, m := range models {
		if ctx.Err() != nil {
			return nil, cancelErr(ctx)
		}
		p, err := pl.Profile(m)
		if err != nil {
			return nil, fmt.Errorf("core: profiling %s: %w", m.Name, err)
		}
		profiles[i] = p
	}
	return profiles, nil
}

// PlanProfiles is PlanModels for pre-built profiles (the planner never
// re-profiles, matching the paper's measure-once workflow).
func (pl *Planner) PlanProfiles(profiles []*profile.Profile) (*Plan, error) {
	return pl.PlanProfilesContext(context.Background(), profiles)
}

// PlanProfilesContext is PlanProfiles under a cancellable context. Each call
// runs under a "plan" span carrying the cache-traffic delta of this plan
// (hits on cost tables reused from earlier plans, misses on fresh
// measurements) and emits one debug log record when a logger is configured.
// With Options.PlanCache enabled the span additionally carries a
// "plan_cache" attribute ("hit" or "miss"); on a hit the whole two-step
// optimisation is skipped and the memoized plan is returned as a deep copy.
func (pl *Planner) PlanProfilesContext(ctx context.Context, profiles []*profile.Profile) (*Plan, error) {
	start := time.Now()
	hits0, misses0 := pl.CacheStats()
	var sp *obs.Span
	if obs.TracingEnabled(ctx) {
		ctx, sp = obs.StartSpan(ctx, "plan", obs.Int("profiles", int64(len(profiles))))
	}
	var key planKey
	var models []*model.Model
	if pl.planCache != nil {
		models = make([]*model.Model, len(profiles))
		for i, p := range profiles {
			models[i] = p.Model()
		}
		key = planSignature(modeSinglePlan, pl.soc.Epoch(), pl.optsFP, models)
		if plan := pl.planCache.get(key, models); plan != nil {
			sp.SetAttrs(obs.Str("plan_cache", "hit"))
			sp.End()
			wall := time.Since(start)
			pl.mPlans.Inc()
			pl.mPlanSeconds.ObserveDuration(wall)
			if pl.opts.Logger != nil {
				pl.opts.Logger.Log(ctx, slog.LevelDebug, "plan complete",
					"profiles", len(profiles), "wall", wall,
					"plan_cache", "hit", "span", sp.IDHex())
			}
			return plan, nil
		}
	}
	plan, err := pl.planProfiles(ctx, profiles)
	hits1, misses1 := pl.CacheStats()
	if sp != nil {
		sp.SetAttrs(
			obs.Int("cache_hits", int64(hits1-hits0)),
			obs.Int("cache_misses", int64(misses1-misses0)))
		if pl.planCache != nil {
			sp.SetAttrs(obs.Str("plan_cache", "miss"))
		}
		sp.End()
	}
	if err != nil {
		return nil, err
	}
	if pl.planCache != nil {
		pl.planCache.put(key, models, plan)
	}
	wall := time.Since(start)
	pl.mPlans.Inc()
	pl.mPlanSeconds.ObserveDuration(wall)
	if pl.opts.Logger != nil {
		pl.opts.Logger.Log(ctx, slog.LevelDebug, "plan complete",
			"profiles", len(profiles), "wall", wall,
			"cache_hits", hits1-hits0, "cache_misses", misses1-misses0,
			"span", sp.IDHex())
	}
	return plan, nil
}

// PlanFrontierModels is PlanModels in frontier mode: instead of collapsing
// the candidate sweep to the min-makespan plan, it returns the whole
// non-dominated frontier over (makespan, throughput, energy, peak memory).
func (pl *Planner) PlanFrontierModels(models []*model.Model) (*Frontier, error) {
	return pl.PlanFrontierModelsContext(context.Background(), models)
}

// PlanFrontierModelsContext is PlanFrontierModels under a cancellable
// context.
func (pl *Planner) PlanFrontierModelsContext(ctx context.Context, models []*model.Model) (*Frontier, error) {
	profiles, err := pl.profileAll(ctx, models)
	if err != nil {
		return nil, err
	}
	return pl.PlanFrontierProfilesContext(ctx, profiles)
}

// PlanFrontierProfiles is PlanFrontierModels for pre-built profiles.
func (pl *Planner) PlanFrontierProfiles(profiles []*profile.Profile) (*Frontier, error) {
	return pl.PlanFrontierProfilesContext(context.Background(), profiles)
}

// PlanFrontierProfilesContext enumerates the Pareto frontier of the
// candidate sweep under a cancellable context. Each call runs under a
// "plan" span with objective="frontier" and a frontier_size attribute.
// With Options.PlanCache enabled whole frontiers are memoized alongside
// single plans under the same epoch/options/digest signature with a
// distinct objective-mode dimension, so the two modes never collide; hits
// return a deep copy. The frontier's first point (min makespan, lowest
// candidate index) is byte-identical to PlanProfilesContext's plan —
// pinned by the differential suite.
func (pl *Planner) PlanFrontierProfilesContext(ctx context.Context, profiles []*profile.Profile) (*Frontier, error) {
	start := time.Now()
	hits0, misses0 := pl.CacheStats()
	var sp *obs.Span
	if obs.TracingEnabled(ctx) {
		ctx, sp = obs.StartSpan(ctx, "plan",
			obs.Int("profiles", int64(len(profiles))), obs.Str("objective", "frontier"))
	}
	var key planKey
	var models []*model.Model
	if pl.planCache != nil {
		models = make([]*model.Model, len(profiles))
		for i, p := range profiles {
			models[i] = p.Model()
		}
		key = planSignature(modeFrontier, pl.soc.Epoch(), pl.optsFP, models)
		if f := pl.planCache.getFrontier(key, models); f != nil {
			sp.SetAttrs(obs.Str("plan_cache", "hit"), obs.Int("frontier_size", int64(f.Size())))
			sp.End()
			wall := time.Since(start)
			pl.mPlans.Inc()
			pl.mFrontiers.Inc()
			pl.mFrontierSize.Observe(float64(f.Size()))
			pl.mPlanSeconds.ObserveDuration(wall)
			if pl.opts.Logger != nil {
				pl.opts.Logger.Log(ctx, slog.LevelDebug, "frontier complete",
					"profiles", len(profiles), "wall", wall, "points", f.Size(),
					"plan_cache", "hit", "span", sp.IDHex())
			}
			return f, nil
		}
	}
	f, err := pl.planFrontierProfiles(ctx, profiles)
	hits1, misses1 := pl.CacheStats()
	if sp != nil {
		sp.SetAttrs(
			obs.Int("cache_hits", int64(hits1-hits0)),
			obs.Int("cache_misses", int64(misses1-misses0)))
		if err == nil {
			sp.SetAttrs(obs.Int("frontier_size", int64(f.Size())))
		}
		if pl.planCache != nil {
			sp.SetAttrs(obs.Str("plan_cache", "miss"))
		}
		sp.End()
	}
	if err != nil {
		return nil, err
	}
	if pl.planCache != nil {
		pl.planCache.putFrontier(key, models, f)
	}
	wall := time.Since(start)
	pl.mPlans.Inc()
	pl.mFrontiers.Inc()
	pl.mFrontierSize.Observe(float64(f.Size()))
	pl.mPlanSeconds.ObserveDuration(wall)
	if pl.opts.Logger != nil {
		pl.opts.Logger.Log(ctx, slog.LevelDebug, "frontier complete",
			"profiles", len(profiles), "wall", wall, "points", f.Size(),
			"cache_hits", hits1-hits0, "cache_misses", misses1-misses0,
			"span", sp.IDHex())
	}
	return f, nil
}

// planFrontierProfiles is the uncached frontier enumeration: the shared
// candidate sweep followed by the dominance filter.
func (pl *Planner) planFrontierProfiles(ctx context.Context, profiles []*profile.Profile) (*Frontier, error) {
	if len(profiles) == 0 {
		// An empty window has exactly one (degenerate) plan; keep Select
		// total by returning a one-point frontier around it.
		empty := &Plan{Schedule: &pipeline.Schedule{SoC: pl.soc}}
		return &Frontier{Points: []FrontierPoint{{Plan: empty}}}, nil
	}
	plans, objs, err := pl.planCandidates(ctx, profiles)
	if err != nil {
		return nil, err
	}
	return newFrontier(plans, objs), nil
}

func (pl *Planner) planProfiles(ctx context.Context, profiles []*profile.Profile) (*Plan, error) {
	if len(profiles) == 0 {
		return &Plan{Schedule: &pipeline.Schedule{SoC: pl.soc}}, nil
	}
	plans, objs, err := pl.planCandidates(ctx, profiles)
	if err != nil {
		return nil, err
	}
	// The first candidate achieving the minimal executed makespan wins,
	// exactly as the sequential strict-improvement loop decides. The
	// comparison is in float seconds, preserving the pre-frontier planner's
	// tie semantics bit for bit. Nil holes are candidates a beam sweep
	// pruned (the exact sweep leaves none).
	var bestPlan *Plan
	var bestSpan float64
	for ci, plan := range plans {
		if plan == nil {
			continue
		}
		if span := objs[ci].Makespan.Seconds(); bestPlan == nil || span < bestSpan {
			bestPlan, bestSpan = plan, span
		}
	}
	return bestPlan, nil
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

	// Step 1 — horizontal: Algorithm 1 per model, independently. The DPs
	// share nothing, so they fan out across the worker pool; each writes
	// only its own index.
	cuts := make([]pipeline.Cuts, m)
	makespans := make([]float64, m)
	err := parallel.ForErr(pl.workers(), m, func(i int) error {
		var c pipeline.Cuts
		var best float64
		var err error
		if pl.partMemo != nil {
			c, best, err = pl.partitionMemoized(ctx, profiles[i])
		} else {
			c, best, err = pl.partition(ctx, profiles[i])
		}
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
			mitigated := pl.mitigate(permuteClasses(classes, cand), k)
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
	// Beam/anytime mode prunes the sweep with the provable regret bound
	// (see beam.go); the exact sweep prices every distinct candidate.
	if pl.beamActive(len(candidates)) {
		err = pl.beamSweep(ctx, sw)
	} else {
		err = pl.exactSweep(ctx, sw)
	}
	if err != nil {
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

// price runs the vertical pass of every listed candidate. Whole passes are
// the planner's unit of fan-out: each runs work stealing and the whole
// tail search, up to m·K+2 priced runs, so passes spread across the
// worker pool while everything inside one — work-stealing windows and
// tail variants — runs inline.
func (pl *Planner) price(ctx context.Context, sw *sweep, idx []int) error {
	err := parallel.ForErr(pl.workers(), len(idx), func(j int) error {
		if ctx.Err() != nil {
			return cancelErr(ctx)
		}
		ci := idx[j]
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
	sw.priced += len(idx)
	return nil
}

// exactSweep prices every candidate. Candidate orderings often coincide —
// a one-model window has a single ordering, and the sorted and mitigated
// orders regularly reproduce one another — and a vertical pass is a pure
// function of its ordering, so each distinct ordering is priced once, at
// its first occurrence, and later duplicates take that plan and objective.
// The winner scan and the frontier both resolve ties to the lowest
// candidate index, so a duplicate never surfaces in their output.
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
	if err := pl.price(ctx, sw, distinct); err != nil {
		return err
	}
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
			ordCuts[i] = cutsOf(sched, i)
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
	res, err := pipeline.Execute(best, opts)
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

// cutsOf recovers the boundary vector of request i from a schedule.
func cutsOf(sched *pipeline.Schedule, i int) pipeline.Cuts {
	k := sched.NumStages()
	n := sched.Profiles[i].NumLayers()
	c := make(pipeline.Cuts, k+1)
	next := 0
	for st := 0; st < k; st++ {
		c[st] = next
		r := sched.Stages[i][st]
		if !r.Empty() {
			next = r.To + 1
		}
	}
	c[k] = n
	return c
}
