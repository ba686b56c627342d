package experiments

import (
	"context"
	"math/rand"
	"sort"
	"time"

	"hetero2pipe/internal/baseline"
	"hetero2pipe/internal/core"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stats"
	"hetero2pipe/internal/workload"
)

// RunFig8a regenerates Fig. 8(a): Hetero²Pipe's vertical optimisation vs
// exhaustive search and simulated annealing over random combinations,
// reporting the latency gap to the exhaustive optimum.
func RunFig8a(cfg Config) (*Report, error) {
	r := &Report{ID: "fig8a", Title: Title("fig8a")}
	s := soc.Kirin990()
	combos := cfg.Combos
	if combos <= 0 {
		combos = 100
	}
	if cfg.Quick && combos > 6 {
		combos = 6
	}
	// Exhaustive needs small sequences: 4–5 requests.
	gen, err := workload.NewGenerator(cfg.Seed+1, 4, 5)
	if err != nil {
		return nil, err
	}
	pl, err := core.NewPlanner(s, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	var h2p, exhaustive, annealed []float64
	var h2pNanos, exNanos, saNanos int64
	for _, names := range gen.Combos(combos) {
		profs, err := mustProfiles(s, names)
		if err != nil {
			return nil, err
		}
		t0 := nowNanos()
		plan, _, err := pl.PlanProfiles(context.TODO(), profs)
		if err != nil {
			return nil, err
		}
		h2pNanos += nowNanos() - t0
		span, err := executeMakespan(plan.Schedule)
		if err != nil {
			return nil, err
		}
		h2p = append(h2p, span.Seconds())

		t0 = nowNanos()
		_, exSpan, err := baseline.Exhaustive(s, profs, pipeline.DefaultOptions())
		if err != nil {
			return nil, err
		}
		exNanos += nowNanos() - t0
		exhaustive = append(exhaustive, exSpan.Seconds())

		saCfg := baseline.DefaultAnnealConfig(cfg.Seed)
		if cfg.Quick {
			saCfg.Iterations = 30
		}
		t0 = nowNanos()
		_, saSpan, err := baseline.SimulatedAnnealing(s, profs, pipeline.DefaultOptions(), saCfg)
		if err != nil {
			return nil, err
		}
		saNanos += nowNanos() - t0
		annealed = append(annealed, saSpan.Seconds())
	}
	// Present combos sorted by H²P latency, as the figure's x-axis is.
	idx := make([]int, len(h2p))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return h2p[idx[a]] < h2p[idx[b]] })
	r.add("%-6s %12s %12s %12s", "combo", "H²P", "exhaustive", "annealing")
	for rank, i := range idx {
		r.add("%-6d %10.1fms %10.1fms %10.1fms", rank+1, h2p[i]*1e3, exhaustive[i]*1e3, annealed[i]*1e3)
	}
	gaps := make([]float64, len(h2p))
	for i := range h2p {
		gaps[i] = h2p[i]/exhaustive[i] - 1
	}
	saGaps := make([]float64, len(annealed))
	for i := range annealed {
		saGaps[i] = annealed[i]/exhaustive[i] - 1
	}
	r.metric("h2p_gap_mean_pct", stats.Mean(gaps)*100)
	r.metric("h2p_gap_max_pct", stats.Max(gaps)*100)
	r.metric("sa_gap_mean_pct", stats.Mean(saGaps)*100)
	r.add("H²P gap to exhaustive: mean %.1f%%, max %.1f%% (paper: ~4%%)",
		stats.Mean(gaps)*100, stats.Max(gaps)*100)
	r.add("annealing gap to exhaustive: mean %.1f%%", stats.Mean(saGaps)*100)
	// Planner complexity advantage ("outperforms simulated annealing with
	// much lower complexity"): wall-clock planning cost per scheme.
	n := float64(len(h2p))
	r.metric("h2p_plan_ms", float64(h2pNanos)/n/1e6)
	r.metric("exhaustive_plan_ms", float64(exNanos)/n/1e6)
	r.metric("sa_plan_ms", float64(saNanos)/n/1e6)
	r.add("planning cost: H²P %.1fms, annealing %.1fms, exhaustive %.1fms per combo",
		float64(h2pNanos)/n/1e6, float64(saNanos)/n/1e6, float64(exNanos)/n/1e6)
	return r, nil
}

// nowNanos isolates the wall-clock read used only for planner-cost
// reporting (the simulation itself runs on a virtual clock).
func nowNanos() int64 { return time.Now().UnixNano() }

// fig8bVariants are the component-removal configurations of Fig. 8(b).
func fig8bVariants() []struct {
	name string
	opts core.Options
} {
	full := core.DefaultOptions()
	noMit := full
	noMit.Mitigation = false
	noTail := full
	noTail.TailOptimization = false
	noSteal := full
	noSteal.WorkStealing = false
	return []struct {
		name string
		opts core.Options
	}{
		{"Full", full},
		{"-Mitigation", noMit},
		{"-TailOpt", noTail},
		{"-WorkSteal", noSteal},
		{"NoC/T", core.NoCTOptions()},
	}
}

// RunFig8b regenerates Fig. 8(b): average latency as components are removed
// from Hetero²Pipe.
func RunFig8b(cfg Config) (*Report, error) {
	r := &Report{ID: "fig8b", Title: Title("fig8b")}
	s := soc.Kirin990()
	combos := cfg.Combos
	if combos <= 0 {
		combos = 100
	}
	gen, err := workload.NewGenerator(cfg.Seed+2, 4, 8)
	if err != nil {
		return nil, err
	}
	comboNames := gen.Combos(combos)
	r.add("%-12s %14s", "variant", "mean latency")
	for _, v := range fig8bVariants() {
		pl, err := core.NewPlanner(s, v.opts)
		if err != nil {
			return nil, err
		}
		var lats []float64
		for _, names := range comboNames {
			profs, err := mustProfiles(s, names)
			if err != nil {
				return nil, err
			}
			plan, _, err := pl.PlanProfiles(context.TODO(), profs)
			if err != nil {
				return nil, err
			}
			span, err := executeMakespan(plan.Schedule)
			if err != nil {
				return nil, err
			}
			lats = append(lats, span.Seconds())
		}
		mean := stats.Mean(lats)
		r.add("%-12s %12.1fms", v.name, mean*1e3)
		r.metric(v.name+"_latency_ms", mean*1e3)
	}
	return r, nil
}

// RunFig12 regenerates Fig. 12: the linear relation between total pipeline
// bubbles and executed latency (Property 1). Each sample point is one
// request ordering of a fixed pipeline plus a mild boundary perturbation:
// the total work is (near-)constant across points, so the latency variation
// is driven by stage misalignment — exactly the bubble mechanism the
// property links to latency.
func RunFig12(cfg Config) (*Report, error) {
	r := &Report{ID: "fig12", Title: Title("fig12")}
	s := soc.Kirin990()
	pipelines := []struct {
		label string
		names []string
	}{
		{"5-net", workload.SceneUnderstanding()},
		{"3-net", []string{"InceptionV4", "ResNet50", "SqueezeNet"}},
	}
	samples := 60
	if cfg.Quick {
		samples = 16
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	for _, pp := range pipelines {
		profs, err := mustProfiles(s, pp.names)
		if err != nil {
			return nil, err
		}
		baseCuts := make([]pipeline.Cuts, len(profs))
		for i, p := range profs {
			c, _, err := core.PartitionContext(context.Background(), p)
			if err != nil {
				return nil, err
			}
			baseCuts[i] = c
		}
		var bubbles, latencies []float64
		for t := 0; t < samples; t++ {
			perm := rng.Perm(len(profs))
			ordProfs := make([]*profile.Profile, len(profs))
			ordCuts := make([]pipeline.Cuts, len(profs))
			for pos, orig := range perm {
				ordProfs[pos] = profs[orig]
				ordCuts[pos] = baseCuts[orig]
			}
			cuts := perturbCuts(rng, ordProfs, ordCuts)
			sched, err := pipeline.FromCuts(s, ordProfs, cuts)
			if err != nil {
				continue
			}
			// The bubble metric (Eq. 3) is defined on solo stage times,
			// so the latency side of the relation executes without the
			// co-execution term as well — like against like.
			res, err := pipeline.ExecuteContext(context.Background(), sched, pipeline.Options{EnforceMemory: true})
			if err != nil {
				continue
			}
			bubbles = append(bubbles, sched.Bubbles().Seconds())
			latencies = append(latencies, res.Makespan.Seconds())
		}
		fit, err := stats.FitLine(bubbles, latencies)
		if err != nil {
			return nil, err
		}
		r.add("%s pipeline: %d samples, latency ≈ %.2f·bubbles + %.1fms, R² = %.3f",
			pp.label, len(bubbles), fit.Slope, fit.Intercept*1e3, fit.R2)
		r.metric(pp.label+"_slope", fit.Slope)
		r.metric(pp.label+"_r2", fit.R2)
	}
	return r, nil
}

// perturbCuts randomly shifts stage boundaries (keeping validity and
// operator support) to sample partitions of varying bubble size.
func perturbCuts(rng *rand.Rand, profs []*profile.Profile, base []pipeline.Cuts) []pipeline.Cuts {
	out := make([]pipeline.Cuts, len(base))
	for i, c := range base {
		n := profs[i].NumLayers()
		k := len(c) - 1
		cand := make(pipeline.Cuts, len(c))
		copy(cand, c)
		// Shift each interior boundary by a random offset.
		for b := 1; b < k; b++ {
			span := n / 4
			if span < 1 {
				span = 1
			}
			delta := rng.Intn(2*span+1) - span
			nb := cand[b] + delta
			if nb < cand[b-1] {
				nb = cand[b-1]
			}
			if nb > cand[b+1] {
				nb = cand[b+1]
			}
			cand[b] = nb
		}
		// Keep the perturbation only if every stage stays supported.
		ok := true
		for st := 0; st < k; st++ {
			if cand[st+1] > cand[st] && !profs[i].Table(st).Supported(cand[st], cand[st+1]-1) {
				ok = false
				break
			}
		}
		if ok {
			out[i] = cand
		} else {
			keep := make(pipeline.Cuts, len(c))
			copy(keep, c)
			out[i] = keep
		}
	}
	return out
}
