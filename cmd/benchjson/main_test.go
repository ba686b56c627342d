package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: hetero2pipe
cpu: Some CPU @ 2.50GHz
BenchmarkPlanColdCache-8   	      10	  11683775 ns/op	 1048576 B/op	    2048 allocs/op
BenchmarkPlanWarmCache-8   	     100	    926113 ns/op	   65536 B/op	     128 allocs/op
BenchmarkPlanWarmCache-8   	     102	    917004 ns/op	   65012 B/op	     127 allocs/op
BenchmarkExecute-8         	     500	    210042 ns/op
BenchmarkStreamBatched-8   	     466	   2571468 ns/op	     83516 plan-ns/window	  438210 B/op	    1571 allocs/op
PASS
ok  	hetero2pipe	4.021s
`

func TestObsBenchJSONConvert(t *testing.T) {
	var out bytes.Buffer
	if err := convert(strings.NewReader(sample), &out); err != nil {
		t.Fatal(err)
	}
	var results []benchResult
	if err := json.Unmarshal(out.Bytes(), &results); err != nil {
		t.Fatalf("output not JSON: %v", err)
	}
	if len(results) != 5 {
		t.Fatalf("parsed %d results, want 5 (repeated -count runs kept separate)", len(results))
	}
	first := results[0]
	if first.Name != "BenchmarkPlanColdCache-8" || first.Runs != 10 ||
		first.NsPerOp != 11683775 || first.BytesPerOp != 1048576 || first.AllocsPerOp != 2048 {
		t.Errorf("first result mismatch: %+v", first)
	}
	noMem := results[3]
	if noMem.Name != "BenchmarkExecute-8" || noMem.NsPerOp != 210042 || noMem.BytesPerOp != 0 || noMem.Metrics != nil {
		t.Errorf("no-benchmem line mismatch: %+v", noMem)
	}
	// A custom metric keeps its value under its unit, and the standard
	// columns after it still parse.
	custom := results[4]
	if custom.Name != "BenchmarkStreamBatched-8" || custom.NsPerOp != 2571468 ||
		custom.BytesPerOp != 438210 || custom.AllocsPerOp != 1571 ||
		len(custom.Metrics) != 1 || custom.Metrics["plan-ns/window"] != 83516 {
		t.Errorf("custom-metric line mismatch: %+v", custom)
	}
	if !strings.Contains(out.String(), `"plan-ns/window": 83516`) {
		t.Errorf("archive lacks the custom metric:\n%s", out.String())
	}
}

func TestObsBenchJSONRejectsJunk(t *testing.T) {
	for _, line := range []string{
		"PASS",
		"ok  	hetero2pipe	4.021s",
		"goos: linux",
		"BenchmarkBroken-8 notanumber 12 ns/op",
		"BenchmarkBroken-8 10 12 ns/op notanumber plan-ns/window",
		"Benchmark only three",
	} {
		if r, ok := parseLine(line); ok {
			t.Errorf("parseLine(%q) accepted: %+v", line, r)
		}
	}
}

func TestObsBenchJSONEmptyInput(t *testing.T) {
	var out bytes.Buffer
	if err := convert(strings.NewReader("no benchmarks here\n"), &out); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(out.String()); got != "[]" {
		t.Errorf("empty input produced %q, want []", got)
	}
}
