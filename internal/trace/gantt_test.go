package trace

import (
	"context"
	"strings"
	"testing"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/workload"
)

func TestGantt(t *testing.T) {
	s := soc.Kirin990()
	models, err := workload.Instantiate([]string{"ResNet50", "SqueezeNet", "BERT"})
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
	out := Gantt(plan.Schedule, res, 60)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 1+s.NumProcessors() {
		t.Fatalf("gantt has %d lines, want %d:\n%s", len(lines), 1+s.NumProcessors(), out)
	}
	for _, id := range []string{"npu", "cpu-big", "gpu", "cpu-small"} {
		if !strings.Contains(out, id) {
			t.Errorf("gantt missing processor row %q", id)
		}
	}
	// Request glyphs appear (short slices can be overpainted by longer
	// ones sharing a bucket, so require most, not all).
	present := 0
	for r := 0; r < len(models); r++ {
		if strings.ContainsRune(out, rune(ganttGlyphs[r])) {
			present++
		}
	}
	if present < len(models)-1 {
		t.Errorf("only %d of %d request glyphs visible:\n%s", present, len(models), out)
	}
	// Row bodies have the requested width.
	body := lines[1][strings.Index(lines[1], "|")+1:]
	body = body[:strings.Index(body, "|")]
	if len(body) != 60 {
		t.Errorf("row width %d, want 60", len(body))
	}
}

func TestGanttEmpty(t *testing.T) {
	if got := Gantt(nil, nil, 40); !strings.Contains(got, "empty") {
		t.Errorf("nil gantt = %q", got)
	}
	if got := Gantt(&pipeline.Schedule{SoC: soc.Kirin990()}, &pipeline.Result{}, 40); !strings.Contains(got, "empty") {
		t.Errorf("zero-makespan gantt = %q", got)
	}
}
