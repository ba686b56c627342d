package experiments

import (
	"context"
	"fmt"
	"time"

	"hetero2pipe/internal/baseline"
	"hetero2pipe/internal/core"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stats"
	"hetero2pipe/internal/workload"
)

// runSchemeFull executes one scheme over one combination's profiles and
// returns the full executed result (latency, throughput, energy, traces).
func runSchemeFull(name string, s *soc.SoC, profs []*profile.Profile) (*pipeline.Result, error) {
	var sched *pipeline.Schedule
	var err error
	switch name {
	case "MNN":
		sched, err = baseline.SerialMNN(s, profs)
	case "Pipe-it":
		sched, err = baseline.PipeIt(s, profs)
	case "Band":
		sched, err = baseline.Band(s, profs)
	case "NoC/T", "H2P":
		opts := core.DefaultOptions()
		if name == "NoC/T" {
			opts = core.NoCTOptions()
		}
		var pl *core.Planner
		pl, err = core.NewPlanner(s, opts)
		if err != nil {
			return nil, err
		}
		var plan *core.Plan
		plan, _, err = pl.PlanProfiles(context.TODO(), profs)
		if err != nil {
			return nil, err
		}
		sched = plan.Schedule
	default:
		return nil, fmt.Errorf("experiments: unknown scheme %q", name)
	}
	if err != nil {
		return nil, err
	}
	return pipeline.ExecuteContext(context.Background(), sched, pipeline.DefaultOptions())
}

// fig7Schemes lists the Fig. 7 comparison schemes in presentation order.
var fig7Schemes = []string{"MNN", "Pipe-it", "Band", "NoC/T", "H2P"}

// RunFig7 regenerates Fig. 7: mean latency and throughput of every scheme
// over random model combinations on each of the three SoCs, plus the
// Band-vs-Hetero²Pipe solution scatter statistics.
func RunFig7(cfg Config) (*Report, error) {
	r := &Report{ID: "fig7", Title: Title("fig7")}
	combos := cfg.Combos
	if combos <= 0 {
		combos = 100
	}
	minM, maxM := 3, 8
	if cfg.Quick {
		minM, maxM = 3, 5
	}
	gen, err := workload.NewGenerator(cfg.Seed, minM, maxM)
	if err != nil {
		return nil, err
	}
	comboNames := gen.Combos(combos)

	for _, s := range soc.Presets() {
		latencies := make(map[string][]float64, len(fig7Schemes))
		throughputs := make(map[string][]float64, len(fig7Schemes))
		for _, names := range comboNames {
			profs, err := mustProfiles(s, names)
			if err != nil {
				return nil, err
			}
			for _, scheme := range fig7Schemes {
				res, err := runSchemeFull(scheme, s, profs)
				if err != nil {
					return nil, err
				}
				latencies[scheme] = append(latencies[scheme], res.Makespan.Seconds())
				throughputs[scheme] = append(throughputs[scheme], res.Throughput())
			}
		}
		r.add("%s (%d combos):", s.Name, combos)
		r.add("  %-8s %14s %16s", "scheme", "mean latency", "mean throughput")
		for _, scheme := range fig7Schemes {
			ml := stats.Mean(latencies[scheme])
			mt := stats.Mean(throughputs[scheme])
			r.add("  %-8s %12.1fms %13.2f inf/s", scheme, ml*1e3, mt)
			r.metric(s.Name+"/"+scheme+"_latency_ms", ml*1e3)
			r.metric(s.Name+"/"+scheme+"_throughput", mt)
		}
		// Per-combo speedups of H²P over each baseline.
		for _, baseScheme := range []string{"MNN", "Pipe-it", "Band", "NoC/T"} {
			sp := stats.Speedups(latencies[baseScheme], latencies["H2P"])
			r.metric(s.Name+"/speedup_vs_"+baseScheme+"_mean", stats.Mean(sp))
			r.metric(s.Name+"/speedup_vs_"+baseScheme+"_max", stats.Max(sp))
			r.add("  H²P vs %-8s mean %.2fx  max %.2fx", baseScheme, stats.Mean(sp), stats.Max(sp))
		}
		// Band-vs-H²P scatter: mean gain and solution variance (the
		// rightmost panels of Fig. 7).
		gain := stats.Speedups(latencies["Band"], latencies["H2P"])
		r.metric(s.Name+"/band_gain_mean", stats.Mean(gain))
		r.metric(s.Name+"/band_var", stats.StdDev(latencies["Band"]))
		r.metric(s.Name+"/h2p_var", stats.StdDev(latencies["H2P"]))
		r.add("  Band scatter: H²P gain %.1f%%, σ(Band)=%.1fms σ(H²P)=%.1fms",
			(stats.Mean(gain)-1)*100,
			stats.StdDev(latencies["Band"])*1e3,
			stats.StdDev(latencies["H2P"])*1e3)
	}
	return r, nil
}

// executeMakespan is a small helper for ablation runs.
func executeMakespan(sched *pipeline.Schedule) (time.Duration, error) {
	res, err := pipeline.ExecuteContext(context.Background(), sched, pipeline.DefaultOptions())
	if err != nil {
		return 0, err
	}
	return res.Makespan, nil
}
