package trace

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stream"
	"hetero2pipe/internal/workload"
)

// chromeEventView mirrors the emitted JSON shape for assertions.
type chromeEventView struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	Ts    float64           `json:"ts"`
	Dur   float64           `json:"dur"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Args  map[string]string `json:"args"`
}

// TestObsStreamChrome: a degraded run's span-sourced trace shows the
// interrupted window's discarded work clipped at the cut, an instant per
// track at the interrupt, and the replanned window as a separate segment.
func TestObsStreamChrome(t *testing.T) {
	res, rec := tracedStreamRun(t, npuOfflineConfig(t), 0)
	if res.Replans == 0 {
		t.Fatal("scenario produced no interrupted window")
	}
	raw, err := StreamChromeFromSpans(rec.Spans())
	if err != nil {
		t.Fatal(err)
	}
	var events []chromeEventView
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("output is not valid trace-event JSON: %v", err)
	}

	var meta, slices, discarded, instants int
	windowsSeen := map[string]bool{}
	var interruptUS float64
	for _, ws := range res.WindowStats {
		if ws.Interrupted {
			interruptUS = float64(ws.End.Nanoseconds()) / 1e3
			break
		}
	}
	for _, e := range events {
		switch e.Phase {
		case "M":
			meta++
		case "i":
			instants++
			if e.Ts != interruptUS {
				t.Errorf("instant event at %v µs, want interrupt at %v µs", e.Ts, interruptUS)
			}
		case "X":
			slices++
			if e.Dur < 0 {
				t.Errorf("negative duration slice %+v", e)
			}
			windowsSeen[e.Args["window"]] = true
			if e.Args["status"] == "discarded" {
				discarded++
				if !strings.HasSuffix(e.Name, "(discarded)") {
					t.Errorf("discarded slice not suffixed: %q", e.Name)
				}
				if e.Ts+e.Dur > interruptUS+0.001 {
					t.Errorf("discarded slice extends past interrupt: ends %v > %v", e.Ts+e.Dur, interruptUS)
				}
			}
		default:
			t.Errorf("unexpected phase %q", e.Phase)
		}
	}
	if meta != soc.Kirin990().NumProcessors() {
		t.Errorf("thread_name metadata events = %d, want %d", meta, soc.Kirin990().NumProcessors())
	}
	if slices == 0 {
		t.Fatal("no slice events emitted")
	}
	if discarded == 0 {
		t.Error("interrupted run emitted no discarded segments")
	}
	if instants == 0 {
		t.Error("no interrupt instant events emitted")
	}
	// Interrupted windows must render as distinct track segments: slices
	// tagged with more than one window index.
	if len(windowsSeen) < 2 {
		t.Errorf("slices span %d window(s), want ≥ 2 (replanned window separate)", len(windowsSeen))
	}
}

func TestObsStreamChromeEmpty(t *testing.T) {
	if _, err := StreamChromeFromSpans(nil); err == nil {
		t.Error("empty trace accepted")
	}
}

// TestObsStreamChromeUninterrupted: a clean run emits only completed
// segments and no instants.
func TestObsStreamChromeUninterrupted(t *testing.T) {
	models, err := workload.Instantiate([]string{model.ResNet50, model.SqueezeNet})
	if err != nil {
		t.Fatal(err)
	}
	reqs := make([]stream.Request, len(models))
	for i, m := range models {
		reqs[i] = stream.Request{Model: m, Arrival: time.Duration(i) * time.Millisecond}
	}
	pl, err := core.NewPlanner(soc.Kirin990(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, err := stream.NewScheduler(pl, stream.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewSpanRecorder(0)
	if _, err := s.RunContext(obs.ContextWithRecorder(context.Background(), rec), reqs, pipeline.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	raw, err := StreamChromeFromSpans(rec.Spans())
	if err != nil {
		t.Fatal(err)
	}
	var events []chromeEventView
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatal(err)
	}
	for _, e := range events {
		if e.Phase == "i" {
			t.Errorf("uninterrupted run emitted instant event %+v", e)
		}
		if e.Args["status"] == "discarded" {
			t.Errorf("uninterrupted run emitted discarded slice %+v", e)
		}
	}
}
