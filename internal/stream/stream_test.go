package stream

import (
	"context"
	"testing"
	"time"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/workload"
)

func newScheduler(t *testing.T, cfg Config) *Scheduler {
	t.Helper()
	pl, err := core.NewPlanner(soc.Kirin990(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func streamOf(t *testing.T, meanGap time.Duration, names ...string) []Request {
	t.Helper()
	models, err := workload.Instantiate(names)
	if err != nil {
		t.Fatal(err)
	}
	return PoissonArrivals(models, meanGap, 7)
}

func TestSchedulerBasics(t *testing.T) {
	s := newScheduler(t, DefaultConfig())
	reqs := streamOf(t, 20*time.Millisecond,
		model.ResNet50, model.SqueezeNet, model.MobileNetV2, model.GoogLeNet,
		model.BERT, model.SqueezeNet, model.MobileNetV2, model.AlexNet)
	res, err := s.RunContext(t.Context(), reqs, pipeline.DefaultOptions())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Windows < 1 {
		t.Error("no planning windows executed")
	}
	for i := range reqs {
		if res.Completions[i] < reqs[i].Arrival {
			t.Errorf("request %d completes at %v before arriving at %v",
				i, res.Completions[i], reqs[i].Arrival)
		}
		if res.Sojourns[i] != res.Completions[i]-reqs[i].Arrival {
			t.Errorf("request %d sojourn inconsistent", i)
		}
	}
	if res.MeanSojourn() <= 0 || res.P95Sojourn() < res.MeanSojourn() {
		t.Errorf("sojourn stats inconsistent: mean %v p95 %v", res.MeanSojourn(), res.P95Sojourn())
	}
	if res.Makespan < res.Completions[len(reqs)-1] {
		t.Error("makespan below final completion")
	}
}

func TestSchedulerWindowCap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxWindow = 2
	cfg.MaxBatch = 1
	s := newScheduler(t, cfg)
	// All requests arrive at time zero: windows must chunk by the cap.
	models, err := workload.Instantiate([]string{
		model.SqueezeNet, model.SqueezeNet, model.SqueezeNet,
		model.SqueezeNet, model.SqueezeNet})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]Request, len(models))
	for i, m := range models {
		reqs[i] = Request{Model: m}
	}
	res, err := s.RunContext(t.Context(), reqs, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows != 3 { // 2 + 2 + 1
		t.Errorf("windows = %d, want 3", res.Windows)
	}
}

func TestSchedulerIdleJump(t *testing.T) {
	s := newScheduler(t, DefaultConfig())
	models, err := workload.Instantiate([]string{model.SqueezeNet, model.SqueezeNet})
	if err != nil {
		t.Fatal(err)
	}
	// Second request arrives long after the first completes.
	reqs := []Request{
		{Model: models[0], Arrival: 0},
		{Model: models[1], Arrival: 5 * time.Second},
	}
	res, err := s.RunContext(t.Context(), reqs, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows != 2 {
		t.Errorf("windows = %d, want 2 (idle gap separates them)", res.Windows)
	}
	if res.Completions[1] < 5*time.Second {
		t.Errorf("second request completed at %v before its arrival", res.Completions[1])
	}
	// The first request's sojourn is unaffected by the idle gap.
	if res.Sojourns[0] > time.Second {
		t.Errorf("first sojourn %v implausibly long", res.Sojourns[0])
	}
}

func TestSchedulerRejectsUnsorted(t *testing.T) {
	s := newScheduler(t, DefaultConfig())
	models, err := workload.Instantiate([]string{model.SqueezeNet, model.SqueezeNet})
	if err != nil {
		t.Fatal(err)
	}
	reqs := []Request{
		{Model: models[0], Arrival: time.Second},
		{Model: models[1], Arrival: 0},
	}
	if _, err := s.RunContext(t.Context(), reqs, pipeline.DefaultOptions()); err == nil {
		t.Error("unsorted arrivals accepted")
	}
}

func TestSchedulerEmpty(t *testing.T) {
	s := newScheduler(t, DefaultConfig())
	res, err := s.RunContext(t.Context(), nil, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows != 0 || res.Makespan != 0 {
		t.Errorf("empty stream result %+v", res)
	}
	if res.MeanSojourn() != 0 || res.P95Sojourn() != 0 {
		t.Error("empty stream sojourn stats non-zero")
	}
}

func TestNewSchedulerValidation(t *testing.T) {
	if _, err := NewScheduler(nil, DefaultConfig()); err == nil {
		t.Error("nil planner accepted")
	}
	pl, err := core.NewPlanner(soc.Kirin990(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewScheduler(pl, Config{MaxWindow: 0}); err == nil {
		t.Error("zero window accepted")
	}
}

func TestPoissonArrivalsDeterministic(t *testing.T) {
	models, err := workload.Instantiate([]string{model.SqueezeNet, model.BERT, model.ViT})
	if err != nil {
		t.Fatal(err)
	}
	a := PoissonArrivals(models, 10*time.Millisecond, 42)
	b := PoissonArrivals(models, 10*time.Millisecond, 42)
	for i := range a {
		if a[i].Arrival != b[i].Arrival {
			t.Fatalf("arrival %d differs: %v vs %v", i, a[i].Arrival, b[i].Arrival)
		}
	}
	// Arrivals strictly increase and scale with the mean gap.
	for i := 1; i < len(a); i++ {
		if a[i].Arrival <= a[i-1].Arrival {
			t.Fatal("arrivals not increasing")
		}
	}
	wide := PoissonArrivals(models, time.Second, 42)
	if wide[len(wide)-1].Arrival <= a[len(a)-1].Arrival {
		t.Error("larger mean gap did not widen the stream")
	}
}

// TestStreamCostCacheReuse: window N+1 must reuse window N's cost tables —
// the planner measures each distinct (model, batch) once for the whole
// stream and every later window is all hits.
func TestStreamCostCacheReuse(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxWindow = 2
	cfg.MaxBatch = 1
	s := newScheduler(t, cfg)
	models, err := workload.Instantiate([]string{
		model.ResNet50, model.SqueezeNet,
		model.ResNet50, model.SqueezeNet,
		model.ResNet50, model.SqueezeNet})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]Request, len(models))
	for i, m := range models {
		reqs[i] = Request{Model: m}
	}
	res, err := s.RunContext(t.Context(), reqs, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows < 2 {
		t.Fatalf("windows = %d, want ≥ 2 for a reuse test", res.Windows)
	}
	// Two distinct models → exactly two measurements; every other lookup
	// (4 across the later windows) is a hit.
	if res.CacheMisses != 2 {
		t.Errorf("cache misses = %d, want 2 (one per distinct model)", res.CacheMisses)
	}
	if res.CacheHits != uint64(len(models))-2 {
		t.Errorf("cache hits = %d, want %d", res.CacheHits, len(models)-2)
	}
}

// TestStreamParallelismInvariant: the whole online run — completions,
// sojourns, window count — is identical whether the planner runs
// sequentially or across a pool, because every window's plan is. So is the
// planner's work: the second stream repeats heavy models within a window,
// and each window's DP cells and DP-row reuses, and the run's total DP
// cells, must not depend on the worker count either.
func TestStreamParallelismInvariant(t *testing.T) {
	streams := [][]string{{
		model.ResNet50, model.SqueezeNet, model.BERT, model.MobileNetV2,
		model.GoogLeNet, model.SqueezeNet, model.YOLOv4, model.AlexNet,
	}, {
		model.YOLOv4, model.BERT, model.YOLOv4, model.SqueezeNet,
		model.BERT, model.ViT, model.ViT, model.YOLOv4,
	}}
	run := func(names []string, par int) (*Result, uint64) {
		opts := core.DefaultOptions()
		opts.Parallelism = par
		pl, err := core.NewPlanner(soc.Kirin990(), opts)
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewScheduler(pl, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunContext(t.Context(), streamOf(t, 15*time.Millisecond, names...), pipeline.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return res, res.Report.Planner.DPCells
	}
	for si, names := range streams {
		seq, seqCells := run(names, 1)
		for _, par := range []int{2, 8} {
			got, cells := run(names, par)
			if got.Makespan != seq.Makespan || got.Windows != seq.Windows {
				t.Fatalf("stream %d, parallelism %d: makespan %v windows %d, sequential %v/%d",
					si, par, got.Makespan, got.Windows, seq.Makespan, seq.Windows)
			}
			for i := range seq.Completions {
				if got.Completions[i] != seq.Completions[i] {
					t.Fatalf("stream %d, parallelism %d: completion %d = %v, sequential %v",
						si, par, i, got.Completions[i], seq.Completions[i])
				}
			}
			if cells != seqCells {
				t.Fatalf("stream %d, parallelism %d: %d DP cells, sequential %d", si, par, cells, seqCells)
			}
			for w, ws := range seq.WindowStats {
				gw := got.WindowStats[w]
				if gw.DPCells != ws.DPCells || gw.IncrementalReuse != ws.IncrementalReuse {
					t.Fatalf("stream %d, parallelism %d, window %d: %d DP cells and %d reuses, sequential %d and %d",
						si, par, w, gw.DPCells, gw.IncrementalReuse, ws.DPCells, ws.IncrementalReuse)
				}
			}
		}
	}
}

// TestWindowedBeatsSerialQueueing: under bursty arrivals, the windowed
// heterogeneous planner yields lower mean sojourn than serial big-CPU
// processing of the same stream — the Fig. 2(a) story in the online
// setting.
func TestWindowedBeatsSerialQueueing(t *testing.T) {
	names := []string{
		model.ResNet50, model.SqueezeNet, model.InceptionV4, model.MobileNetV2,
		model.GoogLeNet, model.AlexNet, model.SqueezeNet, model.MobileNetV2,
	}
	reqs := streamOf(t, 10*time.Millisecond, names...)
	s := newScheduler(t, DefaultConfig())
	res, err := s.RunContext(t.Context(), reqs, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Serial reference: FIFO on the big CPU.
	platform := soc.Kirin990()
	big := platform.Processor("cpu-big")
	now := time.Duration(0)
	var serialSojourn time.Duration
	for _, rq := range reqs {
		if rq.Arrival > now {
			now = rq.Arrival
		}
		now += soc.BatchLatency(big, rq.Model, 1)
		serialSojourn += now - rq.Arrival
	}
	serialMean := serialSojourn / time.Duration(len(reqs))
	if res.MeanSojourn() >= serialMean {
		t.Errorf("windowed mean sojourn %v not below serial %v", res.MeanSojourn(), serialMean)
	}
}

// TestMG1CrossCheck validates the stream simulator's FIFO queueing against
// the Pollaczek–Khinchine M/G/1 mean-waiting-time formula: a single-model
// Poisson stream processed one request per window (MaxWindow 1) is exactly
// an M/D/1 queue whose service time is the planned single-request latency.
// The simulated mean sojourn must land near W = ρ·S/(2(1−ρ)) + S.
func TestMG1CrossCheck(t *testing.T) {
	platform := soc.Kirin990()
	pl, err := core.NewPlanner(platform, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.MaxWindow = 1
	cfg.MaxBatch = 1
	sched, err := NewScheduler(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Deterministic service time: plan one request once and reuse it.
	probe, _, _, err := pl.PlanModels(context.Background(), []*model.Model{model.MustByName(model.ResNet50)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	probeRes, err := pipeline.ExecuteContext(t.Context(), probe.Schedule, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	service := probeRes.Makespan.Seconds()

	const n = 400
	models := make([]*model.Model, n)
	for i := range models {
		models[i] = model.MustByName(model.ResNet50)
	}
	meanGap := time.Duration(2 * service * float64(time.Second)) // ρ = 0.5
	requests := PoissonArrivals(models, meanGap, 99)
	res, err := sched.RunContext(t.Context(), requests, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rho := service / meanGap.Seconds()
	analytic := rho*service/(2*(1-rho)) + service // M/D/1 sojourn
	got := res.MeanSojourn().Seconds()
	// Finite-sample Poisson noise: accept a generous band around the
	// analytic value.
	if got < analytic*0.6 || got > analytic*1.6 {
		t.Errorf("mean sojourn %.4fs vs M/D/1 analytic %.4fs (ρ=%.2f, S=%.4fs)",
			got, analytic, rho, service)
	}
}
