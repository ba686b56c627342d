package experiments

import (
	"context"
	"fmt"
	"strings"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stats"
	"hetero2pipe/internal/trace"
	"hetero2pipe/internal/workload"
)

// RunFig9 regenerates Fig. 9: memory-controller frequency and available
// memory while executing 1-, 2- and 3-stage pipelines built from the
// footprint tiers on the Kirin 990.
func RunFig9(cfg Config) (*Report, error) {
	r := &Report{ID: "fig9", Title: Title("fig9")}
	s := soc.Kirin990()
	pl, err := core.NewPlanner(s, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	for tier, names := range workload.MemoryTiers() {
		models, err := workload.Instantiate(names)
		if err != nil {
			return nil, err
		}
		plan, _, _, err := pl.PlanModels(context.TODO(), models, 1)
		if err != nil {
			return nil, err
		}
		opts := pipeline.DefaultOptions()
		opts.SampleMemory = true
		res, err := pipeline.ExecuteContext(context.Background(), plan.Schedule, opts)
		if err != nil {
			return nil, err
		}
		points := trace.FromResult(s, res)
		maxFreq := trace.MaxFrequency(points)
		minAvail := trace.MinAvailable(points)
		label := strings.Join(names, "+")
		r.add("tier %d (%s): peak mem freq %d MHz, min available %.0f MB, peak resident %.0f MB",
			tier+1, label, maxFreq, float64(minAvail)/1e6, float64(res.PeakMemoryBytes)/1e6)
		r.metric(fmt.Sprintf("tier%d_peak_freq_mhz", tier+1), float64(maxFreq))
		r.metric(fmt.Sprintf("tier%d_min_avail_mb", tier+1), float64(minAvail)/1e6)
		r.metric(fmt.Sprintf("tier%d_peak_resident_mb", tier+1), float64(res.PeakMemoryBytes)/1e6)
	}
	// Single-stage NPU reference: one fully supported model alone on the
	// NPU keeps memory frequency below the maximum (the Fig. 9 contrast).
	npuProfiles, err := mustProfiles(s, []string{model.ResNet50})
	if err != nil {
		return nil, err
	}
	npuStage := s.ProcessorsOfKind(soc.KindNPU)[0]
	cuts := []pipeline.Cuts{pipeline.SingleProcessor(npuProfiles[0].NumLayers(), npuStage, s.NumProcessors())}
	sched, err := pipeline.FromCuts(s, npuProfiles, cuts)
	if err != nil {
		return nil, err
	}
	opts := pipeline.DefaultOptions()
	opts.SampleMemory = true
	res, err := pipeline.ExecuteContext(context.Background(), sched, opts)
	if err != nil {
		return nil, err
	}
	npuFreq := trace.MaxFrequency(trace.FromResult(s, res))
	maxLevel := s.MemFreqLevelsMHz[len(s.MemFreqLevelsMHz)-1]
	r.add("NPU-only reference: peak mem freq %d MHz (max level %d MHz)", npuFreq, maxLevel)
	r.metric("npu_only_peak_freq_mhz", float64(npuFreq))
	r.metric("max_level_mhz", float64(maxLevel))
	return r, nil
}

// fig13Batches are the batch sizes swept in Fig. 13.
var fig13Batches = []int{1, 2, 4, 8, 16, 32}

// RunFig13 regenerates Fig. 13: the growth of batched-inference latency per
// processor. Mobile processors grow affinely (slope ≈ per-sample time); the
// desktop CUDA reference grows sub-linearly until saturation.
func RunFig13(cfg Config) (*Report, error) {
	r := &Report{ID: "fig13", Title: Title("fig13")}
	light := model.MustByName(model.MobileNetV2)
	kirin := soc.Kirin990()
	cuda := soc.DesktopCUDA()
	procs := []*soc.Processor{
		kirin.Processor("cpu-big"),
		kirin.Processor("gpu"),
		kirin.Processor("npu"),
		cuda.Processor("cuda"),
	}
	for _, p := range procs {
		var xs, ys []float64
		row := make([]string, 0, len(fig13Batches))
		for _, b := range fig13Batches {
			lat := soc.BatchLatency(p, light, b)
			if lat == soc.InfDuration {
				row = append(row, "ERR")
				continue
			}
			xs = append(xs, float64(b))
			ys = append(ys, lat.Seconds()*1e3)
			row = append(row, fmt.Sprintf("%.1f", lat.Seconds()*1e3))
		}
		r.add("%-6s latency(ms) per batch %v: %s", p.ID, fig13Batches, strings.Join(row, " "))
		if len(xs) >= 3 {
			fit, err := stats.FitLine(xs, ys)
			if err != nil {
				return nil, err
			}
			r.add("%-6s affine fit: %.2fms/sample + %.2fms, R² = %.4f", p.ID, fit.Slope, fit.Intercept, fit.R2)
			r.metric(p.ID+"_slope_ms", fit.Slope)
			r.metric(p.ID+"_r2", fit.R2)
			// Sub-linearity indicator: latency(8)/latency(1).
			l1 := soc.BatchLatency(p, light, 1).Seconds()
			l8 := soc.BatchLatency(p, light, 8).Seconds()
			r.metric(p.ID+"_scale8", l8/l1)
		}
	}
	return r, nil
}

// RunSearchSpace regenerates the Appendix-A counting: feasible pipelines of
// the example SoC and per-model split choices.
func RunSearchSpace(cfg Config) (*Report, error) {
	r := &Report{ID: "searchspace", Title: Title("searchspace")}
	pipelines := core.FeasiblePipelines(4, 4)
	r.add("feasible pipelines (4 big + 4 small cores, GPU, NPU): %d (paper's Eq. 12 prints 449)", pipelines)
	r.metric("pipelines", float64(pipelines))
	mobilenet := core.SplitChoices(28, 4, 4)
	r.add("split choices for a 28-layer model: %s (paper quotes ~3.6B under its count)", mobilenet.String())
	f, _ := mobilenet.Float64()
	r.metric("splits_28_layers", f)
	total := core.TotalSearchSpace([]int{28, 16, 100}, 4, 4)
	r.add("joint space for {MobileNetV2, VGG16, BERT}-scale set: ~10^%d", len(total.String())-1)
	r.metric("joint_space_digits", float64(len(total.String())))
	return r, nil
}
