package experiments

import (
	"context"
	"fmt"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stats"
	"hetero2pipe/internal/workload"
)

// RunAppBThermal regenerates the Appendix-B thermal study: temperature
// trajectories of each processor under continuous inference load and the
// steady-state throttling factors the profiling phase bakes in. The paper's
// finding: CPUs exceed 60 °C with a noticeable slowdown while GPU/NPU stay
// inside a 50 °C envelope.
func RunAppBThermal(cfg Config) (*Report, error) {
	r := &Report{ID: "appB", Title: Title("appB")}
	s := soc.Kirin990()
	horizon := []float64{0, 30, 60, 120, 300, 600} // seconds of sustained load
	r.add("%-10s %s", "processor", "temperature °C at t = 0/30/60/120/300/600 s")
	for i := range s.Processors {
		p := &s.Processors[i]
		row := ""
		for _, t := range horizon {
			row += fmt.Sprintf(" %5.1f", p.Thermal.TempAt(t))
		}
		r.add("%-10s%s   steady ×%.2f", p.ID, row, p.Thermal.SteadyStateFactor())
		r.metric(p.ID+"_steady_c", p.Thermal.TempAt(600))
		r.metric(p.ID+"_steady_factor", p.Thermal.SteadyStateFactor())
	}
	r.add("experiments run at thermal steady state, as Sec. VI notes")
	return r, nil
}

// RunAppDBatching evaluates the Appendix-D batching workaround end to end:
// a video-analytics stream (one heavy transformer plus lightweight frame
// classifiers) planned with and without request coalescing. Batching must
// not hurt the makespan and must cut the total processor busy time by
// amortising launches, weight loads and boundary copies.
func RunAppDBatching(cfg Config) (*Report, error) {
	r := &Report{ID: "appD", Title: Title("appD")}
	s := soc.Kirin990()
	frames := 24
	if cfg.Quick {
		frames = 12
	}
	requests, err := workload.Instantiate(workload.VideoAnalytics(frames))
	if err != nil {
		return nil, err
	}
	pl, err := core.NewPlanner(s, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	plain, _, _, err := pl.PlanModels(context.TODO(), requests, 1)
	if err != nil {
		return nil, err
	}
	plainRes, err := pipeline.ExecuteContext(context.Background(), plain.Schedule, pipeline.DefaultOptions())
	if err != nil {
		return nil, err
	}
	batched, groups, _, err := pl.PlanModels(context.TODO(), requests, 64)
	if err != nil {
		return nil, err
	}
	batchedRes, err := pipeline.ExecuteContext(context.Background(), batched.Schedule, pipeline.DefaultOptions())
	if err != nil {
		return nil, err
	}
	busy := func(res *pipeline.Result) float64 {
		var sum float64
		for _, e := range res.Timeline {
			sum += (e.End - e.Start).Seconds()
		}
		return sum
	}
	r.add("stream: %d requests coalesced into %d groups", len(requests), len(groups))
	r.add("%-10s %12s %14s %12s", "variant", "makespan", "busy time", "requests")
	r.add("%-10s %10.1fms %12.1fms %12d", "unbatched",
		plainRes.Makespan.Seconds()*1e3, busy(plainRes)*1e3, len(requests))
	r.add("%-10s %10.1fms %12.1fms %12d", "batched",
		batchedRes.Makespan.Seconds()*1e3, busy(batchedRes)*1e3, len(groups))
	r.metric("unbatched_makespan_ms", plainRes.Makespan.Seconds()*1e3)
	r.metric("batched_makespan_ms", batchedRes.Makespan.Seconds()*1e3)
	r.metric("unbatched_busy_ms", busy(plainRes)*1e3)
	r.metric("batched_busy_ms", busy(batchedRes)*1e3)
	r.metric("busy_reduction_pct", (1-busy(batchedRes)/busy(plainRes))*100)
	r.add("busy-time reduction: %.1f%% (launch/weight-load/copy amortisation)",
		(1-busy(batchedRes)/busy(plainRes))*100)
	return r, nil
}

// RunClusterSplit evaluates the Appendix-A design decision directly: plan
// the same workloads on the stock SoC (clusters scheduled whole) and on a
// derived SoC whose big cluster is split 2+2 into per-partition pipeline
// stages (Pipe-it's granularity, carrying the Fig. 10 conflict penalty).
// Whole-cluster scheduling must win.
func RunClusterSplit(cfg Config) (*Report, error) {
	r := &Report{ID: "clustersplit", Title: Title("clustersplit")}
	whole := soc.Kirin990()
	split, err := soc.SplitCluster(whole, soc.KindCPUBig, 2)
	if err != nil {
		return nil, err
	}
	combos := cfg.Combos
	if combos <= 0 {
		combos = 100
	}
	if cfg.Quick && combos > 8 {
		combos = 8
	}
	gen, err := workload.NewGenerator(cfg.Seed+4, 3, 6)
	if err != nil {
		return nil, err
	}
	var wholeLat, splitLat []float64
	for _, names := range gen.Combos(combos) {
		for _, target := range []struct {
			s   *soc.SoC
			acc *[]float64
		}{{whole, &wholeLat}, {split, &splitLat}} {
			profs, err := mustProfiles(target.s, names)
			if err != nil {
				return nil, err
			}
			pl, err := core.NewPlanner(target.s, core.DefaultOptions())
			if err != nil {
				return nil, err
			}
			plan, _, err := pl.PlanProfiles(context.TODO(), profs)
			if err != nil {
				return nil, err
			}
			res, err := pipeline.ExecuteContext(context.Background(), plan.Schedule, pipeline.DefaultOptions())
			if err != nil {
				return nil, err
			}
			*target.acc = append(*target.acc, res.Makespan.Seconds())
		}
	}
	mw, ms := stats.Mean(wholeLat), stats.Mean(splitLat)
	r.add("%-22s %12.1fms", "whole clusters (ours)", mw*1e3)
	r.add("%-22s %12.1fms", "big cluster split 2+2", ms*1e3)
	r.add("splitting penalty: %.1f%% (the Appendix-A rationale for per-cluster scheduling)",
		(ms/mw-1)*100)
	r.metric("whole_latency_ms", mw*1e3)
	r.metric("split_latency_ms", ms*1e3)
	r.metric("split_penalty_pct", (ms/mw-1)*100)
	return r, nil
}
