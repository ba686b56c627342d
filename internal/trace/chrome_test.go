package trace

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/workload"
)

func TestChromeTrace(t *testing.T) {
	s := soc.Kirin990()
	models, err := workload.Instantiate(workload.SceneUnderstanding())
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.NewPlanner(s, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := pl.PlanModels(context.Background(), models, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.Execute(plan.Schedule, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	data, err := ChromeTrace(plan.Schedule, res)
	if err != nil {
		t.Fatalf("ChromeTrace: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(data, &events); err != nil {
		t.Fatalf("trace output not valid JSON: %v", err)
	}
	// One metadata event per stage plus one X event per executed slice.
	meta, exec := 0, 0
	for _, e := range events {
		switch e["ph"] {
		case "M":
			meta++
		case "X":
			exec++
			if e["dur"].(float64) <= 0 {
				t.Error("X event with non-positive duration")
			}
			args := e["args"].(map[string]any)
			for _, key := range []string{"request", "layers", "slowdown"} {
				if _, ok := args[key]; !ok {
					t.Errorf("X event missing arg %q", key)
				}
			}
		default:
			t.Errorf("unexpected phase %v", e["ph"])
		}
	}
	if meta != s.NumProcessors() {
		t.Errorf("%d metadata events, want %d", meta, s.NumProcessors())
	}
	if exec != len(res.Timeline) {
		t.Errorf("%d X events, want %d", exec, len(res.Timeline))
	}
}

func TestChromeTraceNil(t *testing.T) {
	if _, err := ChromeTrace(nil, nil); err == nil {
		t.Error("nil inputs accepted")
	}
}

func TestHTMLReport(t *testing.T) {
	s := soc.Kirin990()
	models, err := workload.Instantiate([]string{"ResNet50", "BERT"})
	if err != nil {
		t.Fatal(err)
	}
	pl, err := core.NewPlanner(s, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	plan, _, err := pl.PlanModels(context.Background(), models, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := pipeline.Execute(plan.Schedule, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	page, err := HTMLReport("demo <run>", plan.Schedule, res)
	if err != nil {
		t.Fatalf("HTMLReport: %v", err)
	}
	doc := string(page)
	for _, want := range []string{
		"<!DOCTYPE html>", "<svg", "</svg>", "demo &lt;run&gt;", // escaping
		"cpu-big", "ResNet50", "BERT", "inf/s",
	} {
		if !strings.Contains(doc, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// One rect per timeline slice plus one background per lane.
	rects := strings.Count(doc, "<rect")
	if want := len(res.Timeline) + s.NumProcessors(); rects != want {
		t.Errorf("%d rects, want %d", rects, want)
	}
	if _, err := HTMLReport("x", nil, nil); err == nil {
		t.Error("nil inputs accepted")
	}
}
