package hetero2pipe_test

import (
	"encoding/json"
	"strings"
	"testing"

	"hetero2pipe"

	"hetero2pipe/internal/model"
)

// TestObsFacadeWithMetrics: one WithMetrics registry feeds all three layers
// through both the offline and the streaming entry points, and exports in
// Prometheus text format.
func TestObsFacadeWithMetrics(t *testing.T) {
	reg := hetero2pipe.NewMetricsRegistry("h2pipe")
	sys, err := hetero2pipe.NewSystem("Kirin990", hetero2pipe.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run("ResNet50", "SqueezeNet"); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if snap.Counters["planner_plans_total"] == 0 {
		t.Error("offline run recorded no plans")
	}
	if snap.Counters["executor_slices_total"] == 0 {
		t.Error("offline run recorded no executor slices")
	}

	res, err := sys.RunStream(burst(t, model.ResNet50, model.SqueezeNet, model.GoogLeNet),
		hetero2pipe.StreamConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report == nil {
		t.Fatal("stream result carries no run report")
	}
	snap = reg.Snapshot()
	if got := snap.Counters["stream_windows_total"]; got != uint64(res.Windows) {
		t.Errorf("stream_windows_total = %d, want %d", got, res.Windows)
	}
	if snap.Histograms["stream_sojourn_seconds"].Count != 3 {
		t.Errorf("sojourn observations = %d, want 3",
			snap.Histograms["stream_sojourn_seconds"].Count)
	}

	var sb strings.Builder
	if err := hetero2pipe.WritePrometheus(&sb, reg); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"# TYPE", "h2pipe_planner_plans_total", "h2pipe_stream_windows_total"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}
}

// TestObsFacadeStreamTrace: a stream run traced through WithSpans renders
// via StreamChromeTraceFromSpans.
func TestObsFacadeStreamTrace(t *testing.T) {
	rec := hetero2pipe.NewSpanRecorder(0)
	sys, err := hetero2pipe.NewSystem("Kirin990", hetero2pipe.WithSpans(rec))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.RunStream(burst(t, model.ResNet50, model.SqueezeNet), hetero2pipe.DefaultStreamConfig()); err != nil {
		t.Fatal(err)
	}
	raw, err := hetero2pipe.StreamChromeTraceFromSpans(rec)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace not JSON: %v", err)
	}
	if len(events) == 0 {
		t.Error("trace is empty")
	}

	// A recorder that holds no stream run — only an offline run's spans —
	// has nothing to render.
	offline := hetero2pipe.NewSpanRecorder(0)
	sys2, err := hetero2pipe.NewSystem("Kirin990", hetero2pipe.WithSpans(offline))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys2.Run("SqueezeNet"); err != nil {
		t.Fatal(err)
	}
	if len(offline.Spans()) == 0 {
		t.Fatal("offline run recorded no spans")
	}
	if _, err := hetero2pipe.StreamChromeTraceFromSpans(offline); err == nil {
		t.Error("StreamChromeTraceFromSpans accepted a recorder holding no stream run")
	}
}
