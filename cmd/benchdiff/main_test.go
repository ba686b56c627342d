package main

import (
	"math"
	"strings"
	"testing"
)

func loadT(t *testing.T, doc string) map[string]best {
	t.Helper()
	set, err := load(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	return set
}

func TestLoadCollapsesRepetitionsToBest(t *testing.T) {
	set := loadT(t, `[
		{"name":"BenchmarkPlan-8","runs":100,"ns_per_op":1500,"bytes_per_op":900,"allocs_per_op":12},
		{"name":"BenchmarkPlan-8","runs":100,"ns_per_op":1200,"bytes_per_op":820,"allocs_per_op":10},
		{"name":"BenchmarkPlan-8","runs":100,"ns_per_op":1350,"bytes_per_op":850,"allocs_per_op":11}
	]`)
	b, ok := set["BenchmarkPlan-8"]
	if !ok {
		t.Fatal("BenchmarkPlan-8 not loaded")
	}
	if b.ns != 1200 {
		t.Errorf("best ns/op %.0f, want the minimum 1200", b.ns)
	}
	if b.bytes != 820 {
		t.Errorf("best bytes/op %d, want the minimum 820", b.bytes)
	}
	if b.allocs != 10 {
		t.Errorf("best allocs/op %d, want the minimum 10", b.allocs)
	}
}

// TestLoadReadsArchivesWithCustomMetrics: benchjson keeps custom metrics
// in a per-element "metrics" object; comparison reads the standard columns
// of such an archive as before.
func TestLoadReadsArchivesWithCustomMetrics(t *testing.T) {
	set := loadT(t, `[
		{"name":"BenchmarkStreamBatched-8","runs":466,"ns_per_op":2571468,"bytes_per_op":438210,"allocs_per_op":1571,"metrics":{"plan-ns/window":83516}}
	]`)
	if b := set["BenchmarkStreamBatched-8"]; b.ns != 2571468 || b.bytes != 438210 || b.allocs != 1571 {
		t.Errorf("loaded %+v, want the standard columns", b)
	}
}

func TestCompareFlagsNsRegression(t *testing.T) {
	oldSet := loadT(t, `[{"name":"BenchmarkX-8","runs":1,"ns_per_op":1000,"allocs_per_op":5}]`)
	newSet := loadT(t, `[{"name":"BenchmarkX-8","runs":1,"ns_per_op":1150,"allocs_per_op":5}]`)
	deltas := compare(oldSet, newSet, 10)
	if len(deltas) != 1 {
		t.Fatalf("got %d deltas, want 1", len(deltas))
	}
	d := deltas[0]
	if !d.regressed {
		t.Errorf("+15%% ns/op not flagged as a regression: %+v", d)
	}
	if math.Abs(d.nsPct-15) > 1e-9 {
		t.Errorf("nsPct %.2f, want 15", d.nsPct)
	}
}

func TestCompareWithinThresholdPasses(t *testing.T) {
	oldSet := loadT(t, `[{"name":"BenchmarkX-8","runs":1,"ns_per_op":1000,"allocs_per_op":5}]`)
	newSet := loadT(t, `[{"name":"BenchmarkX-8","runs":1,"ns_per_op":1099,"allocs_per_op":5}]`)
	if d := compare(oldSet, newSet, 10)[0]; d.regressed {
		t.Errorf("+9.9%% flagged as regression under a 10%% threshold: %+v", d)
	}
}

func TestCompareFlagsAllocsRegression(t *testing.T) {
	oldSet := loadT(t, `[{"name":"BenchmarkX-8","runs":1,"ns_per_op":1000,"allocs_per_op":10}]`)
	newSet := loadT(t, `[{"name":"BenchmarkX-8","runs":1,"ns_per_op":1000,"allocs_per_op":12}]`)
	d := compare(oldSet, newSet, 10)[0]
	if !d.regressed {
		t.Errorf("+20%% allocs/op not flagged: %+v", d)
	}
	if !strings.Contains(d.regressionDetail, "allocs/op") {
		t.Errorf("regression detail %q does not name allocs/op", d.regressionDetail)
	}
}

func TestCompareFlagsBytesRegression(t *testing.T) {
	oldSet := loadT(t, `[{"name":"BenchmarkX-8","runs":1,"ns_per_op":1000,"bytes_per_op":1000,"allocs_per_op":10}]`)
	newSet := loadT(t, `[{"name":"BenchmarkX-8","runs":1,"ns_per_op":1000,"bytes_per_op":1200,"allocs_per_op":10}]`)
	d := compare(oldSet, newSet, 10)[0]
	if !d.regressed {
		t.Errorf("+20%% bytes/op not flagged: %+v", d)
	}
	if !strings.Contains(d.regressionDetail, "bytes/op") {
		t.Errorf("regression detail %q does not name bytes/op", d.regressionDetail)
	}
}

func TestCompareBytesWithinThresholdPasses(t *testing.T) {
	oldSet := loadT(t, `[{"name":"BenchmarkX-8","runs":1,"ns_per_op":1000,"bytes_per_op":1000,"allocs_per_op":10}]`)
	newSet := loadT(t, `[{"name":"BenchmarkX-8","runs":1,"ns_per_op":1000,"bytes_per_op":1090,"allocs_per_op":10}]`)
	if d := compare(oldSet, newSet, 10)[0]; d.regressed {
		t.Errorf("+9%% bytes/op flagged under a 10%% threshold: %+v", d)
	}
}

func TestCompareImprovementIsNotRegression(t *testing.T) {
	oldSet := loadT(t, `[{"name":"BenchmarkX-8","runs":1,"ns_per_op":1000,"allocs_per_op":10}]`)
	newSet := loadT(t, `[{"name":"BenchmarkX-8","runs":1,"ns_per_op":500,"allocs_per_op":2}]`)
	if d := compare(oldSet, newSet, 10)[0]; d.regressed {
		t.Errorf("an improvement was flagged as a regression: %+v", d)
	}
}

func TestCompareMissingBenchmarksNeverRegress(t *testing.T) {
	oldSet := loadT(t, `[{"name":"BenchmarkGone-8","runs":1,"ns_per_op":100,"allocs_per_op":1}]`)
	newSet := loadT(t, `[{"name":"BenchmarkNew-8","runs":1,"ns_per_op":9999,"allocs_per_op":99}]`)
	deltas := compare(oldSet, newSet, 10)
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want 2", len(deltas))
	}
	for _, d := range deltas {
		if d.regressed {
			t.Errorf("one-sided benchmark %s flagged as regression", d.name)
		}
	}
	if !deltas[0].missingInNew || deltas[0].name != "BenchmarkGone-8" {
		t.Errorf("expected BenchmarkGone-8 missing-in-new first, got %+v", deltas[0])
	}
	if !deltas[1].missingInOld || deltas[1].name != "BenchmarkNew-8" {
		t.Errorf("expected BenchmarkNew-8 missing-in-old second, got %+v", deltas[1])
	}
}

func TestPctChangeZeroOld(t *testing.T) {
	if got := pctChange(0, 0); got != 0 {
		t.Errorf("pctChange(0,0) = %v, want 0", got)
	}
	if got := pctChange(0, 5); !math.IsInf(got, 1) {
		t.Errorf("pctChange(0,5) = %v, want +Inf (always trips the threshold)", got)
	}
}

func TestPrintReportMarksRegressions(t *testing.T) {
	oldSet := loadT(t, `[{"name":"BenchmarkX-8","runs":1,"ns_per_op":1000,"allocs_per_op":5}]`)
	newSet := loadT(t, `[{"name":"BenchmarkX-8","runs":1,"ns_per_op":2000,"allocs_per_op":5}]`)
	var sb strings.Builder
	printReport(&sb, compare(oldSet, newSet, 10), 10)
	out := sb.String()
	if !strings.Contains(out, "REGRESSION") {
		t.Errorf("report lacks the REGRESSION marker:\n%s", out)
	}
	if !strings.Contains(out, "1 benchmark(s) regressed") {
		t.Errorf("report lacks the regression summary:\n%s", out)
	}
}
