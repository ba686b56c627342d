package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite ../BENCHMARK.json from the benchmark's tables")

// benchmarkSpec is the layout of BENCHMARK.json at the repository root,
// which describes this benchmark to tools that run it.
type benchmarkSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specMetric   `json:"end_to_end"`
	PerLayer   []specMetric   `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// specMetric is one metric entry; per-layer entries carry no bound.
type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// specFromTables builds BENCHMARK.json's content from the workload and
// metric tables, the single source of both.
func specFromTables() benchmarkSpec {
	s := benchmarkSpec{
		Command:    []string{"bash", "perfbench/run.sh"},
		Paths:      []string{"perfbench"},
		RunSeconds: defaultSeconds,
	}
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, specWorkload{w.name, w.why})
	}
	for _, d := range endToEnd {
		bound := d.bound
		s.EndToEnd = append(s.EndToEnd, specMetric{d.name, d.unit, d.better, &bound})
	}
	for _, d := range perLayer {
		s.PerLayer = append(s.PerLayer, specMetric{d.name, d.unit, d.better, nil})
	}
	return s
}

func TestBenchmarkJSONMatchesTables(t *testing.T) {
	want, err := json.MarshalIndent(specFromTables(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	want = append(want, '\n')
	path := filepath.Join("..", "BENCHMARK.json")
	if *update {
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from the benchmark's tables; regenerate it with go test -run TestBenchmarkJSON -update")
	}
}

func TestMetricTablesAreWellFormed(t *testing.T) {
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := make(map[string]bool)
	check := func(d metricDef) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || seen[d.name] {
			t.Errorf("metric %q (unit %q) is malformed or repeated", d.name, d.unit)
		}
		seen[d.name] = true
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %q: better = %q", d.name, d.better)
		}
	}
	for _, d := range endToEnd {
		check(d)
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("metric %q: bound %g outside (0, 0.25]", d.name, d.bound)
		}
	}
	if !seen["setup_s"] {
		t.Error("no setup_s metric")
	}
	for _, d := range perLayer {
		check(d)
		if d.target == "" {
			t.Errorf("per-layer metric %q names no end-to-end target", d.name)
		}
	}
	for _, w := range workloads {
		if !name.MatchString(w.name) || len(w.why) > 200 || w.limit <= 0 {
			t.Errorf("workload %q is malformed", w.name)
		}
	}
}

func TestCompareRefusesResultsFromDifferentMachines(t *testing.T) {
	base := t.TempDir()
	m := machine{GOOS: "linux", GOARCH: "amd64", CPU: "cpu-a", NProc: 2, GOMAXPROCS: 2, Parallelism: 2, GoVersion: "go1.22"}
	other := m
	other.CPU = "cpu-b"
	write := func(dir string, m machine, hostRPS float64) string {
		path := filepath.Join(base, dir)
		if err := os.MkdirAll(path, 0o755); err != nil {
			t.Fatal(err)
		}
		r := result{
			Provenance: provenance{Machine: m, Workload: "mixed-poisson"},
			summary: summary{Correct: true, Attempted: 1, Metrics: map[string]metricValue{
				"host_rps": {Value: hostRPS, Unit: "1/s"},
			}},
		}
		if err := writeJSON(filepath.Join(path, "r.json"), &r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old", m, 1000)
	for _, c := range []struct {
		dir  string
		m    machine
		rps  float64
		want int
	}{
		{"same", m, 990, 0},   // within host_rps's bound
		{"slower", m, 500, 1}, // a regression
		{"elsewhere", other, 1000, 2},
	} {
		if got := run([]string{"compare", old, write(c.dir, c.m, c.rps)}, io.Discard); got != c.want {
			t.Errorf("compare against %s: exit %d, want %d", c.dir, got, c.want)
		}
	}
}
