package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// compareMain compares two directories of result files: for every workload,
// mode and metric it prints each side's median and the change, and marks
// an end-to-end metric worse than its bound. It refuses results measured on
// different machines. Exit status: 0 no regression, 1 regression, 2 refused
// or unreadable.
func compareMain(args []string, stdout io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD_DIR NEW_DIR")
		return 2
	}
	var sides [2][]result
	for i, dir := range args {
		rs, err := loadResults(dir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
		sides[i] = rs
	}
	if err := sameMachine(append(append([]result(nil), sides[0]...), sides[1]...)); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 2
	}
	type key struct {
		workload string
		trace    bool
	}
	var keys []key
	vals := [2]map[key]map[string][]float64{{}, {}}
	for i, rs := range sides {
		for _, r := range rs {
			k := key{r.Provenance.Workload, r.Provenance.Trace}
			if vals[i][k] == nil {
				vals[i][k] = make(map[string][]float64)
				if i == 0 {
					keys = append(keys, k)
				}
			}
			for name, v := range r.Metrics {
				vals[i][k][name] = append(vals[i][k][name], v.Value)
			}
		}
	}
	sort.Slice(keys, func(a, b int) bool {
		if keys[a].workload != keys[b].workload {
			return keys[a].workload < keys[b].workload
		}
		return !keys[a].trace && keys[b].trace
	})
	regressed := false
	for _, k := range keys {
		defs := endToEnd
		if k.trace {
			defs = perLayer
		}
		for _, d := range defs {
			old, cur := vals[0][k][d.name], vals[1][k][d.name]
			if len(old) == 0 || len(cur) == 0 {
				continue
			}
			mo, mc := median(old), median(cur)
			change := ratio(mc-mo, mo)
			mark := ""
			worse := change
			if d.better == "higher" {
				worse = -change
			}
			if !k.trace && worse > d.bound {
				mark, regressed = "  REGRESSION", true
			}
			fmt.Fprintf(stdout, "%-14s %-32s %14.6g %14.6g %+8.2f%%%s\n", k.workload, d.name, mo, mc, 100*change, mark)
		}
	}
	if regressed {
		return 1
	}
	return 0
}

func loadResults(dir string) ([]result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []result
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, r)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no result files in %s", dir)
	}
	return out, nil
}

// sameMachine refuses a set of results unless one machine measured them
// all.
func sameMachine(rs []result) error {
	for _, r := range rs[1:] {
		if r.Provenance.Machine != rs[0].Provenance.Machine {
			return errors.New("refusing to compare results from different machines: " +
				fmt.Sprintf("%+v vs %+v", rs[0].Provenance.Machine, r.Provenance.Machine))
		}
	}
	return nil
}
