package experiments

import (
	"context"
	"fmt"

	"hetero2pipe/internal/baseline"
	"hetero2pipe/internal/core"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stats"
	"hetero2pipe/internal/workload"
)

// RunDepth is a pipeline-depth ablation (extension): Hetero²Pipe planned on
// progressively richer Kirin 990 subsets — big CPU only; +GPU; +small CPU;
// +NPU — plus the µLayer intra-op baseline on CPU+GPU. Speedups compound as
// processors join, and the intra-op scheme trails pipelining because of its
// per-layer merge overhead (the Sec. II-A criticism).
func RunDepth(cfg Config) (*Report, error) {
	r := &Report{ID: "depth", Title: Title("depth")}
	combos := cfg.Combos
	if combos <= 0 {
		combos = 100
	}
	if cfg.Quick && combos > 6 {
		combos = 6
	}
	gen, err := workload.NewGenerator(cfg.Seed+7, 3, 6)
	if err != nil {
		return nil, err
	}
	comboNames := gen.Combos(combos)

	subsets := []struct {
		label string
		kinds []soc.Kind
	}{
		{"CPU_B", []soc.Kind{soc.KindCPUBig}},
		{"CPU_B+GPU", []soc.Kind{soc.KindCPUBig, soc.KindGPU}},
		{"CPU_B+GPU+CPU_S", []soc.Kind{soc.KindCPUBig, soc.KindGPU, soc.KindCPUSmall}},
		{"all (=H²P)", nil}, // nil means the full SoC
	}

	var base float64
	r.add("%-18s %14s %10s", "processor set", "mean latency", "speedup")
	for i, sub := range subsets {
		s := subsetSoC(soc.Kirin990(), sub.kinds)
		var lats []float64
		for _, names := range comboNames {
			profs, err := mustProfiles(s, names)
			if err != nil {
				return nil, err
			}
			pl, err := core.NewPlanner(s, core.DefaultOptions())
			if err != nil {
				return nil, err
			}
			plan, err := pl.PlanProfiles(context.TODO(), profs)
			if err != nil {
				return nil, err
			}
			res, err := pipeline.Execute(plan.Schedule, pipeline.DefaultOptions())
			if err != nil {
				return nil, err
			}
			lats = append(lats, res.Makespan.Seconds())
		}
		mean := stats.Mean(lats)
		if i == 0 {
			base = mean
		}
		r.add("%-18s %12.1fms %9.2f×", sub.label, mean*1e3, base/mean)
		r.metric(fmt.Sprintf("depth%d_latency_ms", i+1), mean*1e3)
		r.metric(fmt.Sprintf("depth%d_speedup", i+1), base/mean)
	}

	// µLayer intra-op reference on CPU+GPU.
	full := soc.Kirin990()
	var muLats []float64
	for _, names := range comboNames {
		models, err := workload.Instantiate(names)
		if err != nil {
			return nil, err
		}
		lat, err := baseline.MuLayerSerial(full, models)
		if err != nil {
			return nil, err
		}
		muLats = append(muLats, lat.Seconds())
	}
	mu := stats.Mean(muLats)
	r.add("%-18s %12.1fms %9.2f×  (intra-op, per-layer merges)", "µLayer CPU+GPU", mu*1e3, base/mu)
	r.metric("mulayer_latency_ms", mu*1e3)
	r.metric("mulayer_speedup", base/mu)
	return r, nil
}

// subsetSoC restricts an SoC to the given processor kinds (nil keeps all),
// preserving the capability order.
func subsetSoC(s *soc.SoC, kinds []soc.Kind) *soc.SoC {
	if kinds == nil {
		return s
	}
	keep := make(map[soc.Kind]bool, len(kinds))
	for _, k := range kinds {
		keep[k] = true
	}
	out := *s
	out.Name = s.Name + "-subset"
	out.Processors = nil
	for _, p := range s.Processors {
		if keep[p.Kind] {
			out.Processors = append(out.Processors, p)
		}
	}
	return &out
}
