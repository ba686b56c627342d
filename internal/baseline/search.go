package baseline

import (
	"errors"
	"math"
	"math/rand"
	"time"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/parallel"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// Fig. 8 reference searchers. Both explore the vertical-optimisation space —
// the ordering of the request sequence — on top of Algorithm-1 horizontal
// partitions, scoring candidates by executed makespan under the full
// contention model. Exhaustive enumerates every permutation (only viable for
// small |M|); simulated annealing samples it.

// evalOrder builds the work-stolen, tail-optimised schedule for one
// ordering and returns its executed makespan in seconds, as priced by the
// tail search itself. Applying the same downstream machinery (Algorithm 3 +
// tail search) to every ordering makes the reference searchers a strict
// superset of the planner, whose ordering comes from Algorithm 2 alone.
func evalOrder(s *soc.SoC, profiles []*profile.Profile, baseCuts []pipeline.Cuts, order []int, opts pipeline.Options) (float64, *pipeline.Schedule, error) {
	m := len(order)
	ordProfiles := make([]*profile.Profile, m)
	ordCuts := make([]pipeline.Cuts, m)
	for pos, orig := range order {
		ordProfiles[pos] = profiles[orig]
		c := make(pipeline.Cuts, len(baseCuts[orig]))
		copy(c, baseCuts[orig])
		ordCuts[pos] = c
	}
	core.WorkSteal(ordProfiles, ordCuts, s.NumProcessors())
	sched, err := pipeline.FromCuts(s, ordProfiles, ordCuts)
	if err != nil {
		return 0, nil, err
	}
	sched, res, err := core.OptimizeTail(sched, opts)
	if err != nil {
		return 0, nil, err
	}
	return res.Makespan.Seconds(), sched, nil
}

// horizontalCuts runs Algorithm 1 on every profile.
func horizontalCuts(profiles []*profile.Profile) ([]pipeline.Cuts, error) {
	cuts := make([]pipeline.Cuts, len(profiles))
	for i, p := range profiles {
		c, _, err := core.Partition(p)
		if err != nil {
			return nil, err
		}
		cuts[i] = c
	}
	return cuts, nil
}

// maxExhaustiveRequests bounds permutation enumeration (8! = 40320 runs).
const maxExhaustiveRequests = 8

// Exhaustive enumerates every request ordering and returns the best schedule
// and its makespan. It fails for |M| > 8 — the point of Fig. 8 is precisely
// that this does not scale. The grid is evaluated across an auto-sized
// worker pool; ExhaustiveParallel exposes the worker count.
func Exhaustive(s *soc.SoC, profiles []*profile.Profile, opts pipeline.Options) (*pipeline.Schedule, time.Duration, error) {
	return ExhaustiveParallel(s, profiles, opts, 0)
}

// ExhaustiveParallel runs the exhaustive ordering search with at most
// workers goroutines (≤ 0 auto-sizes, 1 is strictly sequential). The
// permutations are enumerated in the sequential walk's order, their spans
// evaluated independently, and the winner chosen as the lowest-ranked
// permutation achieving the minimal span — the permutation a sequential
// first-strict-improvement scan would keep — so the result is identical at
// every worker count.
func ExhaustiveParallel(s *soc.SoC, profiles []*profile.Profile, opts pipeline.Options, workers int) (*pipeline.Schedule, time.Duration, error) {
	m := len(profiles)
	if m == 0 {
		return &pipeline.Schedule{SoC: s}, 0, nil
	}
	if m > maxExhaustiveRequests {
		return nil, 0, errors.New("baseline: exhaustive search infeasible beyond 8 requests")
	}
	baseCuts, err := horizontalCuts(profiles)
	if err != nil {
		return nil, 0, err
	}
	orders := permutationsInWalkOrder(m)
	// First pass: spans only. Schedules are rebuilt for the winner alone —
	// materialising all |M|! of them would dwarf the search itself.
	spans := make([]float64, len(orders))
	err = parallel.ForErr(workers, len(orders), func(i int) error {
		v, _, err := evalOrder(s, profiles, baseCuts, orders[i], opts)
		if err != nil {
			return err
		}
		spans[i] = v
		return nil
	})
	if err != nil {
		return nil, 0, err
	}
	best, bestIdx := math.Inf(1), -1
	for i, v := range spans {
		if v < best {
			best, bestIdx = v, i
		}
	}
	if bestIdx < 0 {
		return nil, 0, errors.New("baseline: exhaustive search found no feasible ordering")
	}
	_, bestSched, err := evalOrder(s, profiles, baseCuts, orders[bestIdx], opts)
	if err != nil {
		return nil, 0, err
	}
	return bestSched, time.Duration(best * float64(time.Second)), nil
}

// permutationsInWalkOrder enumerates every permutation of 0..m-1 in the
// order the recursive swap walk visits them, so rank comparisons against
// the sequential search line up index-for-index.
func permutationsInWalkOrder(m int) [][]int {
	var out [][]int
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	var walk func(depth int)
	walk = func(depth int) {
		if depth == m {
			out = append(out, append([]int(nil), order...))
			return
		}
		for i := depth; i < m; i++ {
			order[depth], order[i] = order[i], order[depth]
			walk(depth + 1)
			order[depth], order[i] = order[i], order[depth]
		}
	}
	walk(0)
	return out
}

// AnnealConfig tunes SimulatedAnnealing.
type AnnealConfig struct {
	// Seed makes the run deterministic.
	Seed int64
	// Iterations is the number of proposal steps.
	Iterations int
	// StartTemp and EndTemp bound the geometric cooling schedule, in
	// relative makespan units.
	StartTemp, EndTemp float64
}

// DefaultAnnealConfig matches the meta-heuristic reference of Fig. 8(a).
func DefaultAnnealConfig(seed int64) AnnealConfig {
	return AnnealConfig{Seed: seed, Iterations: 200, StartTemp: 0.3, EndTemp: 0.01}
}

// SimulatedAnnealing searches orderings by random adjacent-or-arbitrary
// swaps under a geometric cooling schedule.
func SimulatedAnnealing(s *soc.SoC, profiles []*profile.Profile, opts pipeline.Options, cfg AnnealConfig) (*pipeline.Schedule, time.Duration, error) {
	m := len(profiles)
	if m == 0 {
		return &pipeline.Schedule{SoC: s}, 0, nil
	}
	if cfg.Iterations <= 0 {
		cfg = DefaultAnnealConfig(cfg.Seed)
	}
	baseCuts, err := horizontalCuts(profiles)
	if err != nil {
		return nil, 0, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(m)
	cur, curSched, err := evalOrder(s, profiles, baseCuts, order, opts)
	if err != nil {
		return nil, 0, err
	}
	best, bestSched := cur, curSched
	for it := 0; it < cfg.Iterations; it++ {
		frac := float64(it) / float64(cfg.Iterations)
		temp := cfg.StartTemp * math.Pow(cfg.EndTemp/cfg.StartTemp, frac)
		i, j := rng.Intn(m), rng.Intn(m)
		if i == j {
			continue
		}
		order[i], order[j] = order[j], order[i]
		cand, candSched, err := evalOrder(s, profiles, baseCuts, order, opts)
		if err != nil {
			return nil, 0, err
		}
		accept := cand < cur
		if !accept && cur > 0 {
			delta := (cand - cur) / cur
			accept = rng.Float64() < math.Exp(-delta/temp)
		}
		if accept {
			cur = cand
			curSched = candSched
			if cand < best {
				best, bestSched = cand, candSched
			}
		} else {
			order[i], order[j] = order[j], order[i]
		}
	}
	_ = curSched
	return bestSched, time.Duration(best * float64(time.Second)), nil
}
