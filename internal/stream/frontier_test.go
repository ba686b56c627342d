package stream

import (
	"testing"
	"time"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/workload"
)

// zeroArrivals builds requests that all arrive at time zero, so MaxWindow
// alone decides the window split.
func zeroArrivals(t *testing.T, names ...string) []Request {
	t.Helper()
	models, err := workload.Instantiate(names)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]Request, len(models))
	for i, m := range models {
		reqs[i] = Request{Model: m}
	}
	return reqs
}

// TestStreamFrontierWindowStats: a frontier-mode run resolves an SLO class
// per window, records the frontier size, fills the executed objective vector
// and surfaces all three in the run report.
func TestStreamFrontierWindowStats(t *testing.T) {
	reg := obs.NewRegistry("test")
	cfg := DefaultConfig()
	cfg.Objective = core.ObjectiveFrontier
	cfg.Metrics = reg
	s := newScheduler(t, cfg)
	reqs := streamOf(t, 15*time.Millisecond,
		model.ResNet50, model.SqueezeNet, model.MobileNetV2, model.BERT)
	res, err := s.RunContext(t.Context(), reqs, pipeline.DefaultOptions())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.WindowStats) == 0 {
		t.Fatal("no window stats")
	}
	var chosen uint64
	for i, ws := range res.WindowStats {
		if ws.FrontierSize < 1 {
			t.Errorf("window %d: frontier size %d, want ≥ 1", i, ws.FrontierSize)
		}
		if ws.SLO.Kind != core.SLOLatencyCriticalKind {
			t.Errorf("window %d: SLO %v, want latency-critical default", i, ws.SLO)
		}
		if ws.Objective.Makespan <= 0 {
			t.Errorf("window %d: objective makespan %v not populated", i, ws.Objective.Makespan)
		}
		if ws.Objective.EnergyJoules <= 0 {
			t.Errorf("window %d: objective energy %v not populated", i, ws.Objective.EnergyJoules)
		}
	}
	chosen = reg.WithLabels("slo", core.SLOLatencyCritical.String()).
		Counter("stream_objective_choice_total").Value()
	if chosen != uint64(len(res.WindowStats)) {
		t.Errorf("objective-choice counter = %d, want %d (one per window)", chosen, len(res.WindowStats))
	}
	for i, wr := range res.Report.Windows {
		if wr.SLO != core.SLOLatencyCritical.String() {
			t.Errorf("report window %d: slo %q", i, wr.SLO)
		}
		if wr.FrontierSize < 1 {
			t.Errorf("report window %d: frontier_size %d", i, wr.FrontierSize)
		}
		if wr.EnergyJoules <= 0 {
			t.Errorf("report window %d: energy %v", i, wr.EnergyJoules)
		}
	}
}

// TestStreamFrontierMakespanModeUnchanged: without frontier mode the new
// fields stay zero-valued while the executed objective is still recorded.
func TestStreamFrontierMakespanModeUnchanged(t *testing.T) {
	s := newScheduler(t, DefaultConfig())
	res, err := s.RunContext(t.Context(), zeroArrivals(t, model.ResNet50, model.SqueezeNet), pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i, ws := range res.WindowStats {
		if ws.FrontierSize != 0 {
			t.Errorf("window %d: frontier size %d in makespan mode", i, ws.FrontierSize)
		}
		if ws.SLO.Kind != core.SLOUnset {
			t.Errorf("window %d: SLO %v in makespan mode", i, ws.SLO)
		}
		if ws.Objective.Makespan <= 0 {
			t.Errorf("window %d: executed objective not recorded", i)
		}
	}
}

// TestStreamFrontierStrictestClass: a window holding mixed per-request SLO
// classes resolves to the strictest member class, not the config default.
func TestStreamFrontierStrictestClass(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Objective = core.ObjectiveFrontier
	cfg.SLO = core.SLOBatterySaver // config default, overridden by members
	s := newScheduler(t, cfg)
	reqs := zeroArrivals(t, model.ResNet50, model.SqueezeNet, model.MobileNetV2)
	reqs[0].SLO = core.SLOBatterySaver
	reqs[1].SLO = core.SLOLatencyCritical
	res, err := s.RunContext(t.Context(), reqs, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Windows != 1 {
		t.Fatalf("windows = %d, want 1", res.Windows)
	}
	if got := res.WindowStats[0].SLO; got.Kind != core.SLOLatencyCriticalKind {
		t.Errorf("window SLO = %v, want latency-critical (strictest member)", got)
	}

	// Without member classes the config default governs.
	s2 := newScheduler(t, cfg)
	res2, err := s2.RunContext(t.Context(), zeroArrivals(t, model.ResNet50, model.SqueezeNet), pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := res2.WindowStats[0].SLO; got.Kind != core.SLOBatterySaverKind {
		t.Errorf("window SLO = %v, want battery-saver config default", got)
	}
}

// TestStreamFrontierBatterySaverEnergy: on the same single-window workload, a
// battery-saver run must not burn more energy than a latency-critical run,
// and latency-critical must not be slower than battery-saver.
func TestStreamFrontierBatterySaverEnergy(t *testing.T) {
	runWith := func(slo core.SLOClass) WindowStat {
		cfg := DefaultConfig()
		cfg.Objective = core.ObjectiveFrontier
		cfg.SLO = slo
		s := newScheduler(t, cfg)
		res, err := s.RunContext(t.Context(), zeroArrivals(t,
			model.YOLOv4, model.SqueezeNet, model.BERT, model.ResNet50), pipeline.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if res.Windows != 1 {
			t.Fatalf("windows = %d, want 1", res.Windows)
		}
		return res.WindowStats[0]
	}
	saver := runWith(core.SLOBatterySaver)
	crit := runWith(core.SLOLatencyCritical)
	if saver.Objective.EnergyJoules > crit.Objective.EnergyJoules {
		t.Errorf("battery-saver window used %.4f J > latency-critical %.4f J",
			saver.Objective.EnergyJoules, crit.Objective.EnergyJoules)
	}
	if crit.Objective.Makespan > saver.Objective.Makespan {
		t.Errorf("latency-critical window took %v > battery-saver %v",
			crit.Objective.Makespan, saver.Objective.Makespan)
	}
}
