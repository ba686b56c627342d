package experiments

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"time"

	"hetero2pipe/internal/baseline"
	"hetero2pipe/internal/contention"
	"hetero2pipe/internal/core"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/perf"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stats"
	"hetero2pipe/internal/workload"
)

// mustProfiles builds profiles for model names on s.
func mustProfiles(s *soc.SoC, names []string) ([]*profile.Profile, error) {
	out := make([]*profile.Profile, len(names))
	for i, n := range names {
		m, err := model.ByName(n)
		if err != nil {
			return nil, err
		}
		p, err := profile.New(s, m)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

// soloLatency returns the whole-model solo latency on processor k, or -1
// when unsupported.
func soloLatency(p *profile.Profile, k int) time.Duration {
	d := p.SliceTime(k, 0, p.NumLayers()-1)
	if d == soc.InfDuration {
		return -1
	}
	return d
}

// RunFig1 regenerates Fig. 1 / Fig. 11: per-model solo latency on every
// processor of the Kirin 990, with "ERR" for NPU-unsupported networks.
func RunFig1(cfg Config) (*Report, error) {
	r := &Report{ID: "fig1", Title: Title("fig1")}
	s := soc.Kirin990()
	r.add("%-12s %10s %10s %10s %10s", "model", "NPU", "CPU_B", "GPU", "CPU_S")
	for _, name := range model.Names() {
		ps, err := mustProfiles(s, []string{name})
		if err != nil {
			return nil, err
		}
		p := ps[0]
		cells := make([]string, s.NumProcessors())
		for k := 0; k < s.NumProcessors(); k++ {
			if d := soloLatency(p, k); d < 0 {
				cells[k] = "ERR"
			} else {
				// strconv + concat instead of Sprintf: these per-cell
				// strings dominate the hot experiment's formatting cost.
				ms := d.Seconds() * 1e3
				cells[k] = strconv.FormatFloat(ms, 'f', 2, 64) + "ms"
				r.metric(name+"/"+s.Processors[k].ID+"_ms", ms)
			}
		}
		r.add("%-12s %10s %10s %10s %10s", name, cells[0], cells[1], cells[2], cells[3])
	}
	return r, nil
}

// RunFig2a regenerates Fig. 2(a): cumulative completion time of a request
// stream under serial big-CPU execution vs the heterogeneous pipeline.
func RunFig2a(cfg Config) (*Report, error) {
	r := &Report{ID: "fig2a", Title: Title("fig2a")}
	s := soc.Kirin990()
	names := []string{model.ResNet50, model.SqueezeNet, model.InceptionV4,
		model.MobileNetV2, model.GoogLeNet, model.AlexNet}
	if cfg.Quick {
		names = names[:4]
	}
	profs, err := mustProfiles(s, names)
	if err != nil {
		return nil, err
	}
	serialSched, err := baseline.SerialMNN(s, profs)
	if err != nil {
		return nil, err
	}
	serialRes, err := pipeline.ExecuteContext(context.Background(), serialSched, pipeline.DefaultOptions())
	if err != nil {
		return nil, err
	}
	pl, err := core.NewPlanner(s, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	plan, _, err := pl.PlanProfiles(context.TODO(), profs)
	if err != nil {
		return nil, err
	}
	hetRes, err := pipeline.ExecuteContext(context.Background(), plan.Schedule, pipeline.DefaultOptions())
	if err != nil {
		return nil, err
	}
	r.add("%-4s %-12s %14s %14s", "#", "model", "serial CPU_B", "heterogeneous")
	for i, n := range names {
		r.add("%-4d %-12s %12.1fms %12.1fms", i+1, n,
			serialRes.Completions[i].Seconds()*1e3,
			hetRes.Completions[i].Seconds()*1e3)
	}
	r.metric("serial_makespan_ms", serialRes.Makespan.Seconds()*1e3)
	r.metric("hetero_makespan_ms", hetRes.Makespan.Seconds()*1e3)
	r.metric("queueing_reduction_x", serialRes.Makespan.Seconds()/hetRes.Makespan.Seconds())
	return r, nil
}

// RunFig2b regenerates Fig. 2(b): the three PMU counters per model on the
// big CPU, ranked by measured contention intensity.
func RunFig2b(cfg Config) (*Report, error) {
	r := &Report{ID: "fig2b", Title: Title("fig2b")}
	s := soc.Kirin990()
	big := s.Processor("cpu-big")
	type row struct {
		name      string
		intensity float64
		c         perf.Counters
	}
	rows := make([]row, 0, 10)
	for _, name := range model.Names() {
		m := model.MustByName(name)
		rows = append(rows, row{
			name:      name,
			intensity: contention.Measure(big, m).DemandGBps,
			c:         perf.Profile(big, m),
		})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].intensity > rows[j].intensity })
	r.add("%-12s %12s %8s %10s %10s", "model", "intensity", "IPC", "miss-rate", "stall")
	for rank, row := range rows {
		r.add("%-12s %10.2fGB/s %8.2f %10.3f %10.3f",
			row.name, row.intensity, row.c.IPC, row.c.CacheMissRate, row.c.StalledBackend)
		r.metric(fmt.Sprintf("rank_%02d_%s", rank, row.name), row.intensity)
		r.metric(row.name+"_intensity", row.intensity)
	}
	return r, nil
}

// RunTable2 regenerates Table II: solo vs co-execution latency for the
// SqueezeNet/ViT/BERT pairs on the Kirin 990 CPU/GPU.
func RunTable2(cfg Config) (*Report, error) {
	r := &Report{ID: "tab2", Title: Title("tab2")}
	s := soc.Kirin990()
	big, gpu := s.Processor("cpu-big"), s.Processor("gpu")
	pairs := []struct {
		cpuModel, gpuModel string
	}{
		{model.SqueezeNet, model.BERT},
		{model.ViT, model.BERT},
		{model.BERT, model.ViT},
		{model.YOLOv4, model.BERT},
	}
	r.add("%-12s %-6s %14s %14s %10s", "model", "proc", "solo", "co-exec", "slowdown")
	for _, pr := range pairs {
		ma, mb := model.MustByName(pr.cpuModel), model.MustByName(pr.gpuModel)
		fa, fb := contention.Measure(big, ma), contention.Measure(gpu, mb)
		sa, sb := contention.PairSlowdowns(s.BusBandwidthGBps, fa, fb)
		soloA := soloOn(s, big, ma)
		soloB := soloOn(s, gpu, mb)
		r.add("%-12s %-6s %12.2fms %12.2fms %9.2f%%", pr.cpuModel, "CPU_B",
			soloA.Seconds()*1e3, soloA.Seconds()*(1+sa)*1e3, sa*100)
		r.add("%-12s %-6s %12.2fms %12.2fms %9.2f%%", pr.gpuModel, "GPU",
			soloB.Seconds()*1e3, soloB.Seconds()*(1+sb)*1e3, sb*100)
		r.metric(pr.cpuModel+"_cpu_slowdown_pct", sa*100)
		r.metric(pr.gpuModel+"_gpu_vs_"+pr.cpuModel+"_slowdown_pct", sb*100)
	}
	return r, nil
}

func soloOn(s *soc.SoC, p *soc.Processor, m *model.Model) time.Duration {
	var sum time.Duration
	for _, l := range m.Layers {
		if t := p.LayerTime(l); t != soc.InfDuration {
			sum += t
		}
	}
	return sum + p.LaunchOverhead
}

// RunEq1 fits the Eq. (1) ridge regression and reports its weights, the
// prediction/ground-truth correlation, and where its H/L split departs from
// the planner's, which classifies by measured intensity: over the zoo, and
// over the Fig. 7 windows.
func RunEq1(cfg Config) (*Report, error) {
	r := &Report{ID: "eq1", Title: Title("eq1")}
	s := soc.Kirin990()
	big := s.Processor("cpu-big")
	est, err := contention.TrainEstimator(big, model.All(), 0.1)
	if err != nil {
		return nil, err
	}
	var pred, truth []float64
	r.add("%-12s %14s %14s", "model", "predicted", "measured")
	for _, m := range model.All() {
		p := est.Intensity(m)
		g := contention.Measure(big, m).DemandGBps
		pred = append(pred, p)
		truth = append(truth, g)
		r.add("%-12s %12.2fGB/s %12.2fGB/s", m.Name, p, g)
	}
	corr := stats.Pearson(pred, truth)
	r.metric("pearson", corr)
	r.add("Pearson(predicted, measured) = %.3f", corr)

	q := core.DefaultOptions().HighQuantile
	predicted, measured := contention.Classify(pred, q), contention.Classify(truth, q)
	zoo := 0
	for i := range predicted {
		if predicted[i] != measured[i] {
			zoo++
		}
	}
	r.metric("zoo_class_differs", float64(zoo))
	r.add("zoo models Eq. (1) classifies unlike their measured intensity (quantile %g): %d of %d", q, zoo, len(pred))

	// Each Fig. 7 window classified by Eq. (1) in the plan's order, against
	// the planner's own classes. Classify is order-blind, so permuting its
	// input permutes its output.
	gen, err := workload.NewGenerator(cfg.Seed, 3, 8)
	if err != nil {
		return nil, err
	}
	pl, err := core.NewPlanner(s, core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	windows := 0
	for _, names := range gen.Combos(cfg.Combos) {
		models, err := workload.Instantiate(names)
		if err != nil {
			return nil, err
		}
		plan, _, _, err := pl.PlanModels(context.Background(), models, 1)
		if err != nil {
			return nil, err
		}
		intensities := make([]float64, len(plan.Order))
		for pos, orig := range plan.Order {
			intensities[pos] = est.Intensity(models[orig])
		}
		if !slices.Equal(contention.Classify(intensities, q), plan.Classes) {
			windows++
		}
	}
	r.metric("windows_class_differs", float64(windows))
	r.add("Fig. 7 windows with a request Eq. (1) classifies unlike the planner: %d of %d", windows, cfg.Combos)
	return r, nil
}

// RunFig10 regenerates Fig. 10: intra-cluster co-execution slowdown when
// YOLOv4 and VGG16 are co-located on per-core partitions of one CPU cluster
// (labels BB-BB, SS-SS, BBB-B, SSS-S as in the paper). Sub-partitions split
// the cluster's cores and shared L2 and contend for the cluster's single
// memory port, which is why the paper schedules clusters whole.
func RunFig10(cfg Config) (*Report, error) {
	r := &Report{ID: "fig10", Title: Title("fig10")}
	s := soc.Kirin990()
	big := s.Processor("cpu-big")
	small := s.Processor("cpu-small")
	ma, mb := model.MustByName(model.YOLOv4), model.MustByName(model.VGG16)
	configs := []struct {
		label          string
		base           *soc.Processor
		coresA, coresB int
	}{
		{"BB-BB", big, 2, 2},
		{"SS-SS", small, 2, 2},
		{"BBB-B", big, 3, 1},
		{"SSS-S", small, 3, 1},
	}
	r.add("%-8s %18s %18s", "config", "YOLOv4 slowdown", "VGG16 slowdown")
	worst := 0.0
	for _, c := range configs {
		sa, sb := intraClusterPair(c.base, c.coresA, c.coresB, ma, mb)
		r.add("%-8s %17.0f%% %17.0f%%", c.label, sa*100, sb*100)
		r.metric(c.label+"_yolo_pct", sa*100)
		r.metric(c.label+"_vgg_pct", sb*100)
		if sa > worst {
			worst = sa
		}
		if sb > worst {
			worst = sb
		}
	}
	r.metric("worst_pct", worst*100)
	r.add("worst intra-cluster slowdown: %.0f%% (paper: up to ~70%%)", worst*100)
	r.add("whole-cluster scheduling model: %.0f%% at two-way sharing",
		(contention.IntraClusterSlowdown(2)-1)*100)
	return r, nil
}

// intraClusterPair simulates splitting one CPU cluster between two models:
// each sub-partition gets a proportional share of cores and of the shared
// L2, the two contend on the cluster's single memory port, and — the
// dominant effect the paper measures — conflicting evictions in the shared
// L2 add a cache-thrashing penalty proportional to how much of each model's
// time runs on spilled working sets. Together these reach the ~70 % the
// paper reports on the performance cores.
func intraClusterPair(base *soc.Processor, coresA, coresB int, ma, mb *model.Model) (float64, float64) {
	sub := func(cores int) *soc.Processor {
		p := *base
		p.Cores = cores
		frac := float64(cores) / float64(base.Cores)
		p.PeakGFLOPS = base.PeakGFLOPS * frac
		p.L2Bytes = int64(float64(base.L2Bytes) * frac / 2) // conflict misses
		return &p
	}
	pa, pb := sub(coresA), sub(coresB)
	fa := contention.Measure(pa, ma)
	fb := contention.Measure(pb, mb)
	busA, busB := contention.PairSlowdowns(base.SoloBandwidthGBps, fa, fb)
	// Cache-conflict term: the whole-cluster penalty of Appendix A scaled
	// by each victim's spill exposure on its shrunken L2 share.
	conflict := contention.IntraClusterSlowdown(2) - 1
	return busA + conflict*spillFraction(pa, ma), busB + conflict*spillFraction(pb, mb)
}

// spillFraction returns the time fraction the model spends in layers whose
// working set exceeds the (partitioned) L2.
func spillFraction(p *soc.Processor, m *model.Model) float64 {
	var spilled, total float64
	for _, l := range m.Layers {
		t := p.LayerTime(l)
		if t == soc.InfDuration {
			continue
		}
		sec := t.Seconds()
		total += sec
		if l.WorkingSetBytes > p.L2Bytes {
			spilled += sec
		}
	}
	if total == 0 {
		return 0
	}
	return spilled / total
}
