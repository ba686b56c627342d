package stream

import (
	"testing"
	"time"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/workload"
)

// FuzzStreamDegradation throws arbitrary degradation events at a small
// burst and checks the runtime's invariants: either the run errors cleanly
// or every request completes with consistent accounting. The seeds cover
// the headline scenario — a processor going offline mid-window — plus a
// throttle, a bus squeeze and a recovery pair.
func FuzzStreamDegradation(f *testing.F) {
	f.Add(uint8(0), uint8(2), int64(2_000_000), int64(0), 2.0)       // npu offline mid-window
	f.Add(uint8(2), uint8(0), int64(500_000), int64(0), 1.5)         // gpu throttle early
	f.Add(uint8(0), uint8(4), int64(1_000_000), int64(0), 0.5)       // bus squeeze
	f.Add(uint8(1), uint8(2), int64(100_000), int64(4_000_000), 1.0) // cpu-big offline, then online
	f.Fuzz(func(t *testing.T, procSel, kindSel uint8, atNanos, recoverNanos int64, factor float64) {
		s := soc.Kirin990()
		procs := []string{"npu", "cpu-big", "gpu", "cpu-small"}
		kinds := []soc.EventKind{
			soc.EventThermalThrottle, soc.EventFrequencyScale,
			soc.EventProcessorOffline, soc.EventProcessorOnline,
			soc.EventBandwidthSqueeze,
		}
		ev := soc.Event{
			Kind:      kinds[int(kindSel)%len(kinds)],
			Processor: procs[int(procSel)%len(procs)],
			At:        time.Duration(atNanos),
			Factor:    factor,
		}
		if ev.Kind == soc.EventBandwidthSqueeze {
			ev.Processor = ""
		}
		events := []soc.Event{ev}
		if recoverNanos > 0 && ev.Kind == soc.EventProcessorOffline {
			events = append(events, soc.Event{
				Kind: soc.EventProcessorOnline, Processor: ev.Processor,
				At: ev.At + time.Duration(recoverNanos),
			})
		}
		for _, e := range events {
			if e.Validate() != nil {
				t.Skip("invalid event")
			}
		}
		pl, err := core.NewPlanner(s, core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Events = events
		sched, err := NewScheduler(pl, cfg)
		if err != nil {
			t.Fatal(err)
		}
		models, err := workload.Instantiate([]string{model.ResNet50, model.SqueezeNet, model.MobileNetV2})
		if err != nil {
			t.Fatal(err)
		}
		reqs := make([]Request, len(models))
		for i, m := range models {
			reqs[i] = Request{Model: m, Arrival: time.Duration(i) * 100 * time.Microsecond}
		}
		res, err := sched.RunContext(t.Context(), reqs, pipeline.DefaultOptions())
		if err != nil {
			// Degradation can legitimately make the stream unservable
			// (offline CPU with no recovery); the error must surface, not
			// hang or panic.
			return
		}
		for i := range reqs {
			if res.Completions[i] < reqs[i].Arrival {
				t.Errorf("request %d completes at %v before arrival %v", i, res.Completions[i], reqs[i].Arrival)
			}
			if res.Completions[i] > res.Makespan {
				t.Errorf("request %d completion %v beyond makespan %v", i, res.Completions[i], res.Makespan)
			}
		}
		if res.Windows != len(res.WindowStats) {
			t.Errorf("Windows %d != len(WindowStats) %d", res.Windows, len(res.WindowStats))
		}
		interrupted, requeued, completed := 0, 0, 0
		for _, ws := range res.WindowStats {
			if ws.Interrupted {
				interrupted++
			}
			requeued += ws.Requeued
			completed += ws.Completed
		}
		if interrupted != res.Replans {
			t.Errorf("interrupted windows %d != Replans %d", interrupted, res.Replans)
		}
		if requeued != res.Retried {
			t.Errorf("window requeues %d != Retried %d", requeued, res.Retried)
		}
		if completed != len(reqs) {
			t.Errorf("window completions %d != requests %d", completed, len(reqs))
		}
		if res.EventsApplied > len(events) {
			t.Errorf("EventsApplied %d > injected %d", res.EventsApplied, len(events))
		}
	})
}
