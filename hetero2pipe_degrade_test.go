package hetero2pipe_test

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"hetero2pipe"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/stream"
)

func burst(t *testing.T, names ...string) []hetero2pipe.StreamRequest {
	t.Helper()
	out := make([]hetero2pipe.StreamRequest, len(names))
	for i, name := range names {
		out[i] = hetero2pipe.StreamRequest{Model: model.MustByName(name)}
	}
	return out
}

// TestFacadeDegradationRejectsNonFiniteFactors: the facade's ParseEvents
// rejects NaN, infinite and junk-suffixed factors, and a hand-built NaN
// throttle fails the run instead of running it.
func TestFacadeDegradationRejectsNonFiniteFactors(t *testing.T) {
	for _, spec := range []string{
		"throttle:cpu-big@10ms:NaN",
		"throttle:cpu-big@10ms:+Inf",
		"throttle:cpu-big@10ms:inf",
		"freq:gpu@5ms:NaN",
		"bus@20ms:NaN",
		"throttle:cpu-big@10ms:2abc",
	} {
		if evs, err := hetero2pipe.ParseEvents(spec); err == nil {
			t.Errorf("ParseEvents(%q) = %+v, want an error", spec, evs)
		}
	}
	sys, err := hetero2pipe.NewSystem("Kirin990", hetero2pipe.WithDegradationEvents(hetero2pipe.Event{
		At: 10 * time.Millisecond, Kind: hetero2pipe.EventThermalThrottle, Processor: "cpu-big", Factor: math.NaN(),
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunStreamContext(t.Context(), burst(t, model.ResNet50, model.SqueezeNet), hetero2pipe.StreamConfig{}); err == nil {
		t.Error("a NaN throttle ran")
	}
}

func TestFacadeSentinelUnknownPreset(t *testing.T) {
	_, err := hetero2pipe.NewSystem("NoSuchChip")
	if !errors.Is(err, hetero2pipe.ErrUnknownPreset) {
		t.Errorf("error %v does not wrap ErrUnknownPreset", err)
	}
}

func TestFacadeSentinelUnknownModel(t *testing.T) {
	sys, err := hetero2pipe.NewSystem("Kirin990")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunContext(t.Context(), "NoSuchNet"); !errors.Is(err, hetero2pipe.ErrUnknownModel) {
		t.Errorf("Run error %v does not wrap ErrUnknownModel", err)
	}
	if _, err := sys.SerialBaseline("NoSuchNet"); !errors.Is(err, hetero2pipe.ErrUnknownModel) {
		t.Errorf("SerialBaseline error %v does not wrap ErrUnknownModel", err)
	}
}

func TestFacadeSentinelNoProcessor(t *testing.T) {
	sys, err := hetero2pipe.NewSystem("Kirin990")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"npu", "cpu-big", "gpu", "cpu-small"} {
		if err := sys.ApplyEvent(hetero2pipe.Event{Kind: hetero2pipe.EventProcessorOffline, Processor: p}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := sys.RunContext(t.Context(), "ResNet50"); !errors.Is(err, hetero2pipe.ErrNoProcessor) {
		t.Errorf("Run on fully-offline SoC: error %v does not wrap ErrNoProcessor", err)
	}
}

func TestFacadeSentinelCancelled(t *testing.T) {
	sys, err := hetero2pipe.NewSystem("Kirin990")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sys.RunContext(ctx, "ResNet50"); !errors.Is(err, hetero2pipe.ErrCancelled) {
		t.Errorf("RunContext error %v does not wrap ErrCancelled", err)
	}
	reqs := burst(t, model.ResNet50, model.SqueezeNet)
	if _, err := sys.RunStreamContext(ctx, reqs, hetero2pipe.DefaultStreamConfig()); !errors.Is(err, hetero2pipe.ErrCancelled) {
		t.Errorf("RunStreamContext error %v does not wrap ErrCancelled", err)
	}
}

// TestFacadeDegradedStream is the ISSUE acceptance scenario end to end: a
// processor-offline event injected mid-stream through the functional
// options; every request completes on the survivors and the result reports
// the replan.
func TestFacadeDegradedStream(t *testing.T) {
	names := []string{
		model.ResNet50, model.BERT, model.GoogLeNet,
		model.ResNet50, model.BERT, model.GoogLeNet,
	}
	base, err := hetero2pipe.NewSystem("Kirin990", hetero2pipe.WithMaxBatch(1))
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := base.RunStreamContext(t.Context(), burst(t, names...), hetero2pipe.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}

	sys, err := hetero2pipe.NewSystem("Kirin990",
		hetero2pipe.WithMaxBatch(1),
		hetero2pipe.WithDegradationEvents(hetero2pipe.Event{
			Kind:      hetero2pipe.EventProcessorOffline,
			Processor: "npu",
			At:        baseRes.WindowStats[0].End / 3,
		}),
	)
	if err != nil {
		t.Fatal(err)
	}
	reqs := burst(t, names...)
	res, err := sys.RunStreamContext(t.Context(), reqs, hetero2pipe.StreamConfig{})
	if err != nil {
		t.Fatalf("degraded stream: %v", err)
	}
	if res.Replans < 1 {
		t.Errorf("expected at least one replan, got %d", res.Replans)
	}
	if res.EventsApplied != 1 {
		t.Errorf("EventsApplied = %d, want 1", res.EventsApplied)
	}
	for i := range reqs {
		if res.Completions[i] <= 0 {
			t.Errorf("request %d never completed", i)
		}
	}
	if res.Makespan <= baseRes.Makespan {
		t.Errorf("degraded makespan %v not above baseline %v", res.Makespan, baseRes.Makespan)
	}
}

// TestFacadeOptionsCompose: functional options, the legacy struct shim and
// parsed events all feed the same configuration.
func TestFacadeOptionsCompose(t *testing.T) {
	seq, err := hetero2pipe.NewSystem("Kirin990", hetero2pipe.WithParallelism(1))
	if err != nil {
		t.Fatal(err)
	}
	par, err := hetero2pipe.NewSystem("Kirin990")
	if err != nil {
		t.Fatal(err)
	}
	a, err := seq.RunContext(t.Context(), "ResNet50", "SqueezeNet")
	if err != nil {
		t.Fatal(err)
	}
	b, err := par.RunContext(t.Context(), "ResNet50", "SqueezeNet")
	if err != nil {
		t.Fatal(err)
	}
	if a.Latency != b.Latency {
		t.Errorf("parallelism changed the plan: %v vs %v", a.Latency, b.Latency)
	}

	events, err := hetero2pipe.ParseEvents("throttle:gpu@1ms:2,offline:npu@2ms")
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[0].Kind != hetero2pipe.EventThermalThrottle {
		t.Fatalf("parsed events %v", events)
	}
	sys, err := hetero2pipe.NewSystem("Kirin990",
		hetero2pipe.WithWindow(2),
		hetero2pipe.WithMaxBatch(1),
		hetero2pipe.WithDegradationEvents(events...),
	)
	if err != nil {
		t.Fatal(err)
	}
	reqs := stream.PoissonArrivals([]*model.Model{
		model.MustByName(model.SqueezeNet),
		model.MustByName(model.MobileNetV2),
		model.MustByName(model.SqueezeNet),
		model.MustByName(model.MobileNetV2),
	}, 5*time.Millisecond, 11)
	res, err := sys.RunStreamContext(t.Context(), reqs, hetero2pipe.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.EventsApplied != 2 {
		t.Errorf("EventsApplied = %d, want 2", res.EventsApplied)
	}
	for _, ws := range res.WindowStats {
		if ws.Requests > 2 {
			t.Errorf("WithWindow(2) ignored: window of %d requests", ws.Requests)
		}
	}
	// A per-run config with an explicit (non-nil) event list overrides the
	// system events; empty means "no events this run".
	cfg := hetero2pipe.DefaultStreamConfig()
	cfg.Events = []hetero2pipe.Event{}
	res, err = sys.RunStreamContext(t.Context(), burst(t, model.SqueezeNet), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.EventsApplied != 0 {
		t.Errorf("explicit empty event list still applied %d events", res.EventsApplied)
	}
}
