package trace

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stream"
	"hetero2pipe/internal/workload"
)

// tracedStreamRun executes one stream run of a six-request burst
// ([ResNet50, GoogLeNet, BERT] twice at t=0) on Kirin 990 under a span
// recorder of the given capacity (0 selects the default).
func tracedStreamRun(t *testing.T, cfg stream.Config, capacity int) (*stream.Result, *obs.SpanRecorder) {
	t.Helper()
	names := []string{
		model.ResNet50, model.GoogLeNet, model.BERT,
		model.ResNet50, model.GoogLeNet, model.BERT,
	}
	models, err := workload.Instantiate(names)
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]stream.Request, len(models))
	for i, m := range models {
		reqs[i] = stream.Request{Model: m}
	}
	pl, err := core.NewPlanner(soc.Kirin990(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, err := stream.NewScheduler(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewSpanRecorder(capacity)
	ctx := obs.ContextWithRecorder(context.Background(), rec)
	res, err := s.RunContext(ctx, reqs, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return res, rec
}

// npuOfflineConfig is the default config with the NPU going offline at a
// third of the undisturbed run's first window, interrupting it.
func npuOfflineConfig(t *testing.T) stream.Config {
	t.Helper()
	base, _ := tracedStreamRun(t, stream.DefaultConfig(), 0)
	cfg := stream.DefaultConfig()
	cfg.Events = []soc.Event{
		{Kind: soc.EventProcessorOffline, Processor: "npu", At: base.WindowStats[0].End / 3},
	}
	return cfg
}

// checkGolden compares the span-sourced trace with a golden file: the
// same run's trace as rendered from per-window schedules and executor
// results, before the span ring became the only execution record.
func checkGolden(t *testing.T, rec *obs.SpanRecorder, golden string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", golden))
	if err != nil {
		t.Fatal(err)
	}
	got, err := StreamChromeFromSpans(rec.Spans())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("span-sourced trace differs from %s:\nspans:\n%s\ngolden:\n%s", golden, clip(got), clip(want))
	}
}

// TestSpanChromeMatchesStreamChrome pins the span renderer byte for byte
// to the trace the per-window StreamChrome renderer wrote for the same run
// (testdata/stream_chrome.json).
func TestSpanChromeMatchesStreamChrome(t *testing.T) {
	_, rec := tracedStreamRun(t, stream.DefaultConfig(), 0)
	checkGolden(t, rec, "stream_chrome.json")
}

// TestSpanChromeMatchesStreamChromeInterrupted repeats the golden check on
// a degraded run whose first window is interrupted, exercising the
// discarded-segment clipping and the per-track interrupt instants.
func TestSpanChromeMatchesStreamChromeInterrupted(t *testing.T) {
	res, rec := tracedStreamRun(t, npuOfflineConfig(t), 0)
	if res.Replans == 0 {
		t.Fatal("degraded scenario produced no interrupts; the test exercises nothing")
	}
	checkGolden(t, rec, "stream_chrome_interrupted.json")
}

// TestSpanChromeWrappedRing: a ring too small for the run must not yield a
// partial trace. At capacity 16 the three-window run (31 spans) loses
// window 0, at capacity 1 every window, and the renderer reports
// ErrIncompleteSpans; at capacity 24 it loses only planner spans and still
// renders the full trace.
func TestSpanChromeWrappedRing(t *testing.T) {
	cfg := stream.DefaultConfig()
	cfg.MaxWindow = 2
	res, full := tracedStreamRun(t, cfg, 0)
	if res.Windows != 3 {
		t.Fatalf("windows = %d, want 3", res.Windows)
	}
	want, err := StreamChromeFromSpans(full.Spans())
	if err != nil {
		t.Fatal(err)
	}

	// Capacity 1 keeps only the stream_run root, which ends last.
	for _, capacity := range []int{16, 1} {
		_, small := tracedStreamRun(t, cfg, capacity)
		if small.Total() <= uint64(capacity) {
			t.Fatalf("run recorded %d spans; the ring never wrapped", small.Total())
		}
		if got, err := StreamChromeFromSpans(small.Spans()); !errors.Is(err, ErrIncompleteSpans) {
			t.Fatalf("capacity %d: err = %v (%d bytes), want ErrIncompleteSpans", capacity, err, len(got))
		}
	}

	_, mid := tracedStreamRun(t, cfg, 24)
	if mid.Total() <= 24 {
		t.Fatalf("run recorded %d spans; the ring never wrapped", mid.Total())
	}
	got, err := StreamChromeFromSpans(mid.Spans())
	if err != nil {
		t.Fatalf("ring that lost only planner spans: %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("capacity-24 trace differs from the full trace:\n%s\nwant:\n%s", clip(got), clip(want))
	}
}

// TestSpanChromeLostExecutionSpans: an executed window missing its execute
// span or one of its slice spans is reported, not rendered short.
func TestSpanChromeLostExecutionSpans(t *testing.T) {
	_, rec := tracedStreamRun(t, stream.DefaultConfig(), 0)
	spans := rec.Spans()
	for _, name := range []string{"execute", "slice"} {
		var kept []obs.SpanData
		dropped := false
		for _, s := range spans {
			if s.Name == name && !dropped {
				dropped = true
				continue
			}
			kept = append(kept, s)
		}
		if !dropped {
			t.Fatalf("run recorded no %s span", name)
		}
		if _, err := StreamChromeFromSpans(kept); !errors.Is(err, ErrIncompleteSpans) {
			t.Errorf("first %s span dropped: err = %v, want ErrIncompleteSpans", name, err)
		}
	}
}

// TestSpanChromeHaltedWindow: a window halted before it executed has no
// execute span by construction, and the run still renders.
func TestSpanChromeHaltedWindow(t *testing.T) {
	base, _ := tracedStreamRun(t, stream.DefaultConfig(), 0)
	cfg := stream.DefaultConfig()
	cfg.MaxWindow = 2
	cfg.MaxRetries = 1
	cfg.HaltInfeasible = true
	at := base.WindowStats[0].End / 3
	for _, p := range []string{"npu", "cpu-big", "gpu", "cpu-small"} {
		cfg.Events = append(cfg.Events, soc.Event{Kind: soc.EventProcessorOffline, Processor: p, At: at})
	}
	res, rec := tracedStreamRun(t, cfg, 0)
	if !res.Halted || res.Windows == 0 {
		t.Fatalf("halted=%v windows=%d, want a halt after an executed window", res.Halted, res.Windows)
	}
	if _, err := StreamChromeFromSpans(rec.Spans()); err != nil {
		t.Fatalf("halted run: %v", err)
	}
}

// TestSpanTreeStructure pins the span hierarchy the converter (and any
// OTLP consumer) relies on: every slice span is the child of an execute
// span, every execute span the child of exactly one window span, and
// every window span the child of the single stream_run root — so each
// slice descends from exactly one window.
func TestSpanTreeStructure(t *testing.T) {
	res, rec := tracedStreamRun(t, stream.DefaultConfig(), 0)
	spans := rec.Spans()
	byID := make(map[uint64]obs.SpanData, len(spans))
	for _, s := range spans {
		byID[s.ID] = s
	}
	var rootID uint64
	windows := 0
	for _, s := range spans {
		switch s.Name {
		case "stream_run":
			if s.Parent != 0 {
				t.Errorf("stream_run span %d has parent %d, want root", s.ID, s.Parent)
			}
			if rootID != 0 {
				t.Fatalf("more than one stream_run span in a single-run recorder")
			}
			rootID = s.ID
		case "window":
			windows++
		}
	}
	if rootID == 0 {
		t.Fatal("no stream_run root span recorded")
	}
	if windows != res.Windows {
		t.Errorf("recorded %d window spans, result has %d windows", windows, res.Windows)
	}
	slices := 0
	for _, s := range spans {
		if s.Name != "slice" {
			continue
		}
		slices++
		exec, ok := byID[s.Parent]
		if !ok || exec.Name != "execute" {
			t.Fatalf("slice span %d: parent %d is %q, want an execute span", s.ID, s.Parent, exec.Name)
		}
		win, ok := byID[exec.Parent]
		if !ok || win.Name != "window" {
			t.Fatalf("slice span %d: grandparent %d is %q, want a window span", s.ID, exec.Parent, win.Name)
		}
		if win.Parent != rootID {
			t.Errorf("window span %d hangs off %d, want the stream_run root %d", win.ID, win.Parent, rootID)
		}
	}
	if want := res.Report.Executor.Slices; slices != want {
		t.Errorf("recorded %d slice spans, the executor ran %d slices", slices, want)
	}
}

// clip bounds failure output.
func clip(b []byte) []byte {
	if len(b) > 2000 {
		return append(append([]byte(nil), b[:2000]...), []byte("...")...)
	}
	return b
}
