package fleet

import (
	"io"
	"sync"
	"testing"
	"time"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stream"
)

// TestFleetRaceStress is the concurrency gate (`make fleet`): four
// mixed-preset devices with concurrent degradation streams run their shards
// in parallel goroutines, all publishing into one shared obs registry, one
// span ring and per-device SSE feeds — while reader goroutines hammer
// Snapshot, the Prometheus and OTLP exporters and Status, and a deliberately
// blocking feed subscriber never drains. Run under -race; the assertion is
// "completes correctly with no data race and no publisher stall".
func TestFleetRaceStress(t *testing.T) {
	reg := obs.NewRegistry("h2pipe")
	spans := obs.NewSpanRecorder(8192)

	presets := []func() *soc.SoC{soc.Kirin990, soc.Snapdragon778G, soc.Snapdragon870, soc.Kirin990}
	names := []string{"dev0", "dev1", "dev2", "dev3"}
	devices := make([]*Device, len(presets))
	for i := range presets {
		// Every device gets its own degradation churn: repeated throttles and
		// a bounded offline/online flap, each moving the SoC state and
		// forcing replans while the other devices are mid-window.
		events := []soc.Event{
			{Kind: soc.EventThermalThrottle, Processor: "cpu-big", At: time.Duration(i+1) * time.Millisecond, Factor: 1.5},
			{Kind: soc.EventProcessorOffline, Processor: "gpu", At: time.Duration(i+2) * 2 * time.Millisecond},
			{Kind: soc.EventProcessorOnline, Processor: "gpu", At: time.Duration(i+2) * 4 * time.Millisecond},
			{Kind: soc.EventFrequencyScale, Processor: "cpu-small", At: time.Duration(i+3) * 3 * time.Millisecond, Factor: 0.8},
		}
		popts := core.DefaultOptions()
		popts.PlanCache = 8
		scfg := stream.Config{
			MaxWindow:    3,
			MaxBatch:     1,
			MaxRetries:   4,
			RetryBackoff: 200 * time.Microsecond,
			Events:       events,
		}
		dev, err := NewDevice(DeviceSpec{Name: names[i], SoC: presets[i](), Planner: popts, Stream: scfg}, reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		devices[i] = dev
	}
	fl, err := New(devices, Config{Policy: NewLeastSojournPolicy(), Metrics: reg, Spans: spans})
	if err != nil {
		t.Fatal(err)
	}

	// Feed consumers: per device, one well-behaved subscriber that drains and
	// one blocking subscriber with a full buffer that never reads — the
	// publisher must drop for it, not stall the run.
	var consumers sync.WaitGroup
	var cancels []func()
	for _, d := range devices {
		ch, cancel := d.Feed().Subscribe(4)
		cancels = append(cancels, cancel)
		consumers.Add(1)
		go func(ch <-chan stream.WindowStat) {
			defer consumers.Done()
			for range ch {
			}
		}(ch)
		_, cancelBlocked := d.Feed().Subscribe(1) // never drained
		defer cancelBlocked()
	}

	// Reader hammer: every observability read-side surface, concurrently with
	// the run.
	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				reg.Snapshot()
				_ = obs.WritePrometheus(io.Discard, reg)
				_ = obs.WriteOTLP(io.Discard, spans, "stress")
				fl.Status()
				for _, d := range devices {
					d.Feed().Live()
					d.Feed().Ready()
				}
			}
		}()
	}

	var models []*model.Model
	zoo := []string{model.ResNet50, model.SqueezeNet, model.GoogLeNet, model.MobileNetV2, model.AlexNet}
	for i := 0; i < 32; i++ {
		models = append(models, model.MustByName(zoo[i%len(zoo)]))
	}
	requests := PoissonArrivals(models, time.Millisecond, 11, len(devices))

	res, err := fl.RunContext(t.Context(), requests, pipeline.DefaultOptions())
	close(done)
	readers.Wait()
	if err != nil {
		t.Fatal(err)
	}
	for i := range requests {
		if res.Completions[i] <= 0 {
			t.Errorf("request %d never completed", i)
		}
	}
	st := fl.Status()
	if st.Completed != len(requests) {
		t.Errorf("status completed = %d, want %d", st.Completed, len(requests))
	}

	// The shared store must hold one labeled series per device for the
	// scheduler's core counters.
	snap := reg.Snapshot()
	for _, name := range names {
		key := obs.SeriesName("stream_windows_total", "device", name)
		if _, ok := snap.Counters[key]; !ok {
			t.Errorf("shared registry missing per-device series %s", key)
		}
	}
	if len(spans.Spans()) == 0 {
		t.Error("span ring empty after a traced fleet run")
	}

	// Cancelling the subscriptions closes their channels and ends the
	// consumer goroutines.
	for _, cancel := range cancels {
		cancel()
	}
	consumers.Wait()
}
