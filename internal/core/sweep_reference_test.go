package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"

	"hetero2pipe/internal/contention"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/parallel"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// Sweep reference differential. The candidate sweep prices each distinct
// ordering once, threads executor Results from work stealing through the
// tail search, prunes tail variants by a processor-load bound and fans out
// only whole candidate passes. None of that may change a plan: the
// pre-deduplication sweep — planCandidates, verticalPass, betterCuts,
// OptimizeTailContext, the objective
// projection and the parallel work-stealing helper — is kept verbatim below
// (renamed with a reference prefix; it prices every schedule with a full
// ExecuteContext, never with the cut-off Price), and every test here
// requires the live planner's single plans and whole frontiers to be
// byte-identical to it, errors included.

var sweepParallelisms = []int{1, 2, 4}

// referencePlan is the reference sweep collapsed to the min-makespan plan
// (the winner scan of sweepWindow).
func (pl *Planner) referencePlan(ctx context.Context, profiles []*profile.Profile) (*Plan, error) {
	plans, objs, err := pl.referencePlanCandidates(ctx, profiles)
	if err != nil {
		return nil, err
	}
	var bestPlan *Plan
	var bestSpan float64
	for ci, plan := range plans {
		if span := objs[ci].Makespan.Seconds(); bestPlan == nil || span < bestSpan {
			bestPlan, bestSpan = plan, span
		}
	}
	return bestPlan, nil
}

// canonicalFrontier renders every point of a frontier: candidate index,
// the objective vector (floats in hex) and the canonical plan.
func canonicalFrontier(f *Frontier) string {
	var b strings.Builder
	for _, pt := range f.Points {
		o := pt.Objective
		fmt.Fprintf(&b, "candidate=%d makespan=%d throughput=%x energy=%x peak=%d\n%s",
			pt.Candidate, int64(o.Makespan), o.Throughput, o.EnergyJoules, o.PeakMemoryBytes, canonicalPlan(pt.Plan))
	}
	return b.String()
}

// sweepOutputs plans the window once as a single plan and once as a
// frontier on fresh planners, through the live or the reference sweep, and
// renders both (or the error that stopped them).
func sweepOutputs(t *testing.T, s *soc.SoC, opts Options, models []*model.Model, reference bool) (plan, frontier string) {
	t.Helper()
	fresh := func() *Planner {
		pl, err := NewPlanner(s, opts)
		if err != nil {
			t.Fatalf("NewPlanner(%s): %v", s.Name, err)
		}
		return pl
	}
	ctx := context.Background()
	if reference {
		pl := fresh()
		_, profiles, err := pl.groupProfiles(ctx, models, 1, new(Account))
		if err != nil {
			return "error: " + err.Error(), "error: " + err.Error()
		}
		if p, err := pl.referencePlan(ctx, profiles); err != nil {
			plan = "error: " + err.Error()
		} else {
			plan = canonicalPlan(p)
		}
		pl = fresh()
		if plans, objs, err := pl.referencePlanCandidates(ctx, profiles); err != nil {
			frontier = "error: " + err.Error()
		} else {
			frontier = canonicalFrontier(newFrontier(plans, objs))
		}
		return plan, frontier
	}
	if p, _, _, err := fresh().PlanModels(context.Background(), models, 1); err != nil {
		plan = "error: " + err.Error()
	} else {
		plan = canonicalPlan(p)
	}
	if f, _, _, err := fresh().PlanFrontierModels(context.Background(), models, 1); err != nil {
		frontier = "error: " + err.Error()
	} else {
		frontier = canonicalFrontier(f)
	}
	return plan, frontier
}

// assertSweepMatchesReference is the check every test below shares: at
// each parallelism, the live sweep's plan and frontier must equal the
// reference sweep's byte for byte.
func assertSweepMatchesReference(t *testing.T, s *soc.SoC, opts Options, models []*model.Model, label string) {
	t.Helper()
	for _, par := range sweepParallelisms {
		opts.Parallelism = par
		wantPlan, wantFrontier := sweepOutputs(t, s, opts, models, true)
		gotPlan, gotFrontier := sweepOutputs(t, s, opts, models, false)
		if gotPlan != wantPlan {
			t.Errorf("%s on %s at parallelism %d: plan differs from the reference sweep:\n--- reference ---\n%s--- live ---\n%s",
				label, s.Name, par, wantPlan, gotPlan)
		}
		if gotFrontier != wantFrontier {
			t.Errorf("%s on %s at parallelism %d: frontier differs from the reference sweep:\n--- reference ---\n%s--- live ---\n%s",
				label, s.Name, par, wantFrontier, gotFrontier)
		}
	}
}

// TestSweepReferenceZooSingles: every zoo model alone on every preset.
func TestSweepReferenceZooSingles(t *testing.T) {
	for _, s := range soc.AllPresets() {
		for _, name := range model.Names() {
			assertSweepMatchesReference(t, s, DefaultOptions(), mustModels(t, name), "single "+name)
		}
	}
}

// TestSweepReferencePaperPairs: the paper's co-execution pairs on every
// preset.
func TestSweepReferencePaperPairs(t *testing.T) {
	pairs := [][]string{
		{model.ResNet50, model.SqueezeNet},
		{model.BERT, model.MobileNetV2},
		{model.YOLOv4, model.GoogLeNet},
		{model.VGG16, model.InceptionV4},
		{model.ViT, model.AlexNet},
	}
	for _, s := range soc.AllPresets() {
		for _, pair := range pairs {
			assertSweepMatchesReference(t, s, DefaultOptions(), mustModels(t, pair...), "pair "+strings.Join(pair, "+"))
		}
	}
}

// randomSweepWindow draws a 1–8-model window from the zoo, about a quarter
// of its members batched 2–4×, so windows repeat models and mix batch
// sizes.
func randomSweepWindow(rng *rand.Rand) ([]*model.Model, string) {
	names := model.Names()
	size := 1 + rng.Intn(8)
	models := make([]*model.Model, size)
	labels := make([]string, size)
	for i := range models {
		m := model.MustByName(names[rng.Intn(len(names))])
		if rng.Intn(4) == 0 {
			m = model.Batched(m, 2+rng.Intn(3))
		}
		models[i], labels[i] = m, m.Name
	}
	return models, strings.Join(labels, "+")
}

// TestSweepReferenceRandomWindows: seeded random windows rotating through
// the presets.
func TestSweepReferenceRandomWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(20261017))
	presets := soc.AllPresets()
	windows := 24
	if testing.Short() {
		windows = 8
	}
	for w := 0; w < windows; w++ {
		models, label := randomSweepWindow(rng)
		s := presets[w%len(presets)]
		assertSweepMatchesReference(t, s, DefaultOptions(), models, fmt.Sprintf("window %d (%s)", w, label))
	}
}

// sweepAblations are the option sets the reference differential runs: the
// paper's ablations, each vertical step alone and removed, the contention
// and memory switches of the executor, classification extremes, a trained
// Eq. (1) estimator and from-scratch partitioning.
func sweepAblations(t *testing.T) []struct {
	name string
	opts Options
} {
	t.Helper()
	s := soc.Kirin990()
	est, err := contention.TrainEstimator(s.Processor("cpu-big"), model.All(), 0.1)
	if err != nil {
		t.Fatalf("TrainEstimator: %v", err)
	}
	with := func(edit func(*Options)) Options {
		o := DefaultOptions()
		edit(&o)
		return o
	}
	return []struct {
		name string
		opts Options
	}{
		{"default", DefaultOptions()},
		{"noct", NoCTOptions()},
		{"bare", Options{HighQuantile: 0.5, ExecOptions: DefaultOptions().ExecOptions}},
		{"no-mitigation", with(func(o *Options) { o.Mitigation = false })},
		{"no-work-stealing", with(func(o *Options) { o.WorkStealing = false })},
		{"no-tail", with(func(o *Options) { o.TailOptimization = false })},
		{"tail-only", with(func(o *Options) { o.Mitigation, o.WorkStealing = false, false })},
		{"steal-only", with(func(o *Options) { o.Mitigation, o.TailOptimization = false, false })},
		{"no-contention", with(func(o *Options) { o.ExecOptions.Contention = false })},
		{"no-memory-cap", with(func(o *Options) { o.ExecOptions.EnforceMemory = false })},
		{"quantile-0", with(func(o *Options) { o.HighQuantile = 0 })},
		{"quantile-1", with(func(o *Options) { o.HighQuantile = 1 })},
		{"estimator", with(func(o *Options) { o.Estimator = est })},
	}
}

// TestSweepReferenceAblations runs mixed windows — one with a batched
// member, one whose plan stalls admission under a 256 MiB memory cap —
// under every ablation.
func TestSweepReferenceAblations(t *testing.T) {
	tight := soc.Kirin990()
	tight.MemoryCapacityBytes = 256 << 20
	windows := []struct {
		s      *soc.SoC
		models []*model.Model
	}{
		{soc.Kirin990(), append(mustModels(t, model.YOLOv4, model.SqueezeNet, model.BERT, model.ResNet50),
			model.Batched(model.MustByName(model.MobileNetV2), 4))},
		{tight, mustModels(t, model.VGG16, model.BERT, model.InceptionV4)},
	}
	for _, ab := range sweepAblations(t) {
		t.Run(ab.name, func(t *testing.T) {
			for _, w := range windows {
				assertSweepMatchesReference(t, w.s, ab.opts, w.models, ab.name)
			}
		})
	}
}

// FuzzSweepReference fuzzes windows — zoo picks, batched variants and
// synthetic layer chains — together with option bits (mitigation, work
// stealing, tail search, contention) and the parallelism, and
// requires the live sweep to match the reference byte for byte: on a fresh
// planner, and on one planner through a short warm sequence over the
// window's multiset (see warmSequence).
func FuzzSweepReference(f *testing.F) {
	for i := 0; i < len(model.Names()); i++ {
		f.Add([]byte{byte(i)}, int64(i), uint8(0))
	}
	f.Add([]byte{0, 5, 9}, int64(42), uint8(0))
	f.Add([]byte{3, 3, 7, 1}, int64(7), uint8(0x0f))
	f.Add([]byte{11, 2, 13, 4, 4}, int64(99), uint8(0x15))
	f.Add([]byte{6, 1, 8}, int64(3), uint8(0x22))
	f.Fuzz(func(t *testing.T, raw []byte, seed int64, bits uint8) {
		if len(raw) == 0 {
			return
		}
		if len(raw) > 5 {
			raw = raw[:5] // bound the window so each body stays fast
		}
		names := model.Names()
		rng := rand.New(rand.NewSource(seed))
		models := make([]*model.Model, len(raw))
		for i, b := range raw {
			switch arm := int(b) % (len(names) + 2); {
			case arm < len(names):
				models[i] = model.MustByName(names[arm])
			case arm == len(names):
				models[i] = model.Batched(model.MustByName(names[int(b/2)%len(names)]), 2+int(b)%3)
			default:
				models[i] = syntheticChain(rng, fmt.Sprintf("fuzz-%d-%d", seed, i))
			}
		}
		presets := soc.AllPresets()
		s := presets[int(uint64(seed)%uint64(len(presets)))]
		opts := DefaultOptions()
		opts.Mitigation = bits&1 == 0
		opts.WorkStealing = bits&2 == 0
		opts.TailOptimization = bits&4 == 0
		opts.ExecOptions.Contention = bits&8 == 0
		par := sweepParallelisms[int(bits>>4)%len(sweepParallelisms)]
		opts.Parallelism = par
		wantPlan, wantFrontier := sweepOutputs(t, s, opts, models, true)
		gotPlan, gotFrontier := sweepOutputs(t, s, opts, models, false)
		if gotPlan != wantPlan || gotFrontier != wantFrontier {
			t.Fatalf("bits %#x on %s at parallelism %d: live sweep differs from the reference:\n--- reference plan ---\n%s--- live plan ---\n%s--- reference frontier ---\n%s--- live frontier ---\n%s",
				bits, s.Name, par, wantPlan, gotPlan, wantFrontier, gotFrontier)
		}
		assertWarmSequenceMatchesReference(t, s, opts, warmSequence(rng, s, models, 4), fmt.Sprintf("bits %#x warm", bits))
	})
}

// referencePlanCandidates runs the full two-step optimisation and returns every
// candidate ordering's plan with its executed objective vector, in
// deterministic candidate order. The single-objective planner collapses
// this sweep to the min-makespan plan; frontier mode keeps the
// non-dominated set — the other axes come for free because every candidate
// is already priced by the executor.
func (pl *Planner) referencePlanCandidates(ctx context.Context, profiles []*profile.Profile) ([]*Plan, []Objective, error) {
	m := len(profiles)
	k := pl.soc.NumProcessors()

	// Step 1 — horizontal: Algorithm 1 per model, independently. The DPs
	// share nothing, so they fan out across the worker pool; each writes
	// only its own index.
	cuts := make([]pipeline.Cuts, m)
	makespans := make([]float64, m)
	err := parallel.ForErr(pl.workers(), m, func(i int) error {
		c, best, _, err := pl.partition(ctx, profiles[i], new(Account))
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
			mitigated := pl.lapMemo.mitigate(permuteClasses(classes, cand), k)
			candidates = append(candidates, composeOrders(cand, mitigated))
		}
	}

	// Every candidate's vertical pass is independent (each works on its own
	// cut copies); evaluate them across the pool and merge in candidate
	// order, so both the single-objective winner scan and the frontier's
	// candidate-index tie-breaks are byte-identical at every parallelism.
	plans := make([]*Plan, len(candidates))
	objs := make([]Objective, len(candidates))
	err = parallel.ForErr(pl.workers(), len(candidates), func(ci int) error {
		if ctx.Err() != nil {
			return cancelErr(ctx)
		}
		plan, obj, err := pl.referenceVerticalPass(ctx, profiles, cuts, classes, intensities, candidates[ci], k)
		if err != nil {
			return err
		}
		plans[ci] = plan
		objs[ci] = obj
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return plans, objs, nil
}

// referenceVerticalPass runs steps 2b (guarded work stealing) and 2c (tail local
// search) for one candidate ordering and returns the plan plus its executed
// objective vector (makespan, throughput, energy, peak memory).
func (pl *Planner) referenceVerticalPass(ctx context.Context, profiles []*profile.Profile, cuts []pipeline.Cuts,
	classes []contention.Class, intensities []float64,
	order []int, k int) (*Plan, Objective, error) {
	m := len(order)
	ordProfiles := make([]*profile.Profile, m)
	ordCuts := make([]pipeline.Cuts, m)
	ordClasses := make([]contention.Class, m)
	ordIntensities := make([]float64, m)
	for pos, orig := range order {
		ordProfiles[pos] = profiles[orig]
		c := make(pipeline.Cuts, len(cuts[orig]))
		copy(c, cuts[orig])
		ordCuts[pos] = c
		ordClasses[pos] = classes[orig]
		ordIntensities[pos] = intensities[orig]
	}

	// Step 2b — vertical: Algorithm 3 work stealing per contention window,
	// accepted only when the executed makespan improves: alignment reduces
	// the analytic bubbles (Eq. 3) but can extend co-execution overlap,
	// and the slowdown model arbitrates.
	if pl.opts.WorkStealing {
		stolen := make([]pipeline.Cuts, m)
		for i := range ordCuts {
			stolen[i] = make(pipeline.Cuts, len(ordCuts[i]))
			copy(stolen[i], ordCuts[i])
		}
		referenceWorkStealParallel(ordProfiles, stolen, k, pl.workers())
		keep, err := pl.referenceBetterCuts(ordProfiles, ordCuts, stolen)
		if err != nil {
			return nil, Objective{}, fmt.Errorf("core: work stealing: %w", err)
		}
		ordCuts = keep
	}

	sched, err := pipeline.FromCuts(pl.soc, ordProfiles, ordCuts)
	if err != nil {
		return nil, Objective{}, fmt.Errorf("core: assembling schedule: %w", err)
	}

	// Step 2c — tail-bubble local search.
	if pl.opts.TailOptimization {
		sched, err = referenceOptimizeTailContext(ctx, sched, pl.opts.ExecOptions, pl.workers())
		if err != nil {
			return nil, Objective{}, fmt.Errorf("core: tail optimisation: %w", err)
		}
	}

	res, err := pipeline.ExecuteContext(ctx, sched, pl.opts.ExecOptions)
	if err != nil {
		return nil, Objective{}, fmt.Errorf("core: evaluating candidate order: %w", err)
	}

	return &Plan{
		Schedule:    sched,
		Order:       order,
		Classes:     ordClasses,
		Intensities: ordIntensities,
	}, referenceObjectiveOf(res), nil
}

// referenceObjectiveOf projects an executed pipeline result onto the planner's
// objective axes.
func referenceObjectiveOf(res *pipeline.Result) Objective {
	return Objective{
		Makespan:        res.Makespan,
		Throughput:      res.Throughput(),
		EnergyJoules:    res.EnergyJoules,
		PeakMemoryBytes: res.PeakMemoryBytes,
	}
}

// referenceBetterCuts returns whichever cut set executes faster for the fixed order.
func (pl *Planner) referenceBetterCuts(profiles []*profile.Profile, a, b []pipeline.Cuts) ([]pipeline.Cuts, error) {
	schedA, err := pipeline.FromCuts(pl.soc, profiles, a)
	if err != nil {
		return nil, err
	}
	resA, err := pipeline.ExecuteContext(context.Background(), schedA, pl.opts.ExecOptions)
	if err != nil {
		return nil, err
	}
	schedB, err := pipeline.FromCuts(pl.soc, profiles, b)
	if err != nil {
		// Stolen cuts can in principle assemble into an invalid schedule
		// only through a bug; fall back to the originals defensively.
		return a, nil
	}
	resB, err := pipeline.ExecuteContext(context.Background(), schedB, pl.opts.ExecOptions)
	if err != nil {
		return a, nil
	}
	if resB.Makespan < resA.Makespan {
		return b, nil
	}
	return a, nil
}

// referenceOptimizeTailContext runs the tail search over a worker pool under a
// cancellable context: for each request (still swept tail-first — the sweep
// itself is a dependent chain, each request building on the incumbent
// schedule) the K single-processor variants are evaluated concurrently and
// merged in processor order, so the variant adopted is the one the
// sequential strict-improvement scan would adopt: the lowest-numbered
// processor achieving the minimal makespan. Variants for one request are
// independent because a variant differs from the incumbent only in the
// request's own stage row, which each candidate overwrites wholesale.
func referenceOptimizeTailContext(ctx context.Context, sched *pipeline.Schedule, opts pipeline.Options, workers int) (*pipeline.Schedule, error) {
	m := sched.NumRequests()
	k := sched.NumStages()
	if m == 0 {
		return sched, nil
	}
	base, err := pipeline.ExecuteContext(ctx, sched, opts)
	if err != nil {
		return nil, err
	}
	bestSched, bestSpan := sched, base.Makespan

	cands := make([]*pipeline.Schedule, k)
	spans := make([]time.Duration, k)
	for i := m - 1; i >= 0; i-- {
		if ctx.Err() != nil {
			return nil, cancelErr(ctx)
		}
		n := sched.Profiles[i].NumLayers()
		incumbent := bestSched
		parallel.For(workers, k, func(proc int) {
			cands[proc] = nil
			if !sched.Profiles[i].Table(proc).Supported(0, n-1) {
				return
			}
			cand := incumbent.Clone()
			cand.Stages[i] = pipeline.SingleProcessor(n, proc, k).RangesOf()
			res, err := pipeline.ExecuteContext(ctx, cand, opts)
			if err != nil {
				return // infeasible variant; keep searching
			}
			cands[proc] = cand
			spans[proc] = res.Makespan
		})
		for proc := 0; proc < k; proc++ {
			if cands[proc] != nil && spans[proc] < bestSpan {
				bestSched, bestSpan = cands[proc], spans[proc]
			}
		}
	}
	return bestSched, nil
}

// referenceWorkStealParallel is WorkSteal across a worker pool. The windows are
// disjoint slices of the request sequence and each alignment writes only
// its own window's cut vectors, so the windows are embarrassingly parallel
// and the result is identical at every worker count.
func referenceWorkStealParallel(profiles []*profile.Profile, cuts []pipeline.Cuts, k, workers int) {
	m := len(profiles)
	if m == 0 || k <= 0 {
		return
	}
	windows := (m + k - 1) / k
	parallel.For(workers, windows, func(w int) {
		u := w * k
		hi := u + k
		if hi > m {
			hi = m
		}
		window := profiles[u:hi]
		wCuts := cuts[u:hi]
		AlignWindow(window, wCuts, CriticalIndex(window, wCuts))
	})
}

// The reference sweep's ordering helpers, as the live planner had them
// before it wrote its candidate orderings into pooled buffers
// (candidateOrders): each allocates its result, and the sorts go through
// sort.SliceStable.

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
