// Command benchjson converts `go test -bench` text output on stdin into a
// JSON array on stdout, one element per benchmark line:
//
//	go test -bench . -benchmem . | go run ./cmd/benchjson > bench.json
//
// Repeated runs of the same benchmark (-count > 1) stay as separate
// elements so downstream tooling can compute variance. Custom metrics a
// benchmark reports with b.ReportMetric (plan-ns/window, say) go into the
// element's "metrics" object, keyed by unit.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// benchResult is one parsed benchmark line.
type benchResult struct {
	Name        string  `json:"name"`
	Runs        int64   `json:"runs"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
	// Metrics holds the line's custom metrics, keyed by unit.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	if err := convert(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func convert(in io.Reader, out io.Writer) error {
	results := []benchResult{}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		if r, ok := parseLine(sc.Text()); ok {
			results = append(results, r)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(results)
}

// parseLine parses one `Benchmark<Name>-P  N  x ns/op [y B/op  z allocs/op]`
// line; anything else (headers, PASS, ok lines) reports ok=false.
func parseLine(line string) (benchResult, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return benchResult{}, false
	}
	runs, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return benchResult{}, false
	}
	r := benchResult{Name: fields[0], Runs: runs}
	// Remaining fields come in value/unit pairs.
	for i := 2; i+1 < len(fields); i += 2 {
		v := fields[i]
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp, err = strconv.ParseFloat(v, 64)
		case "B/op":
			r.BytesPerOp, err = strconv.ParseInt(v, 10, 64)
		case "allocs/op":
			r.AllocsPerOp, err = strconv.ParseInt(v, 10, 64)
		default:
			var f float64
			if f, err = strconv.ParseFloat(v, 64); err == nil {
				if r.Metrics == nil {
					r.Metrics = make(map[string]float64)
				}
				r.Metrics[fields[i+1]] = f
			}
		}
		if err != nil {
			return benchResult{}, false
		}
	}
	if r.NsPerOp == 0 && r.BytesPerOp == 0 && r.AllocsPerOp == 0 {
		return benchResult{}, false
	}
	return r, true
}
