package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"time"

	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/soc"
)

// spanIndex is the subtree of spans under one benchmark root span.
type spanIndex struct {
	byID     map[uint64]obs.SpanData
	children map[uint64][]obs.SpanData
	byName   map[string][]obs.SpanData
}

func indexSpans(all []obs.SpanData, root uint64) *spanIndex {
	kids := make(map[uint64][]obs.SpanData)
	idx := &spanIndex{
		byID:     make(map[uint64]obs.SpanData),
		children: make(map[uint64][]obs.SpanData),
		byName:   make(map[string][]obs.SpanData),
	}
	for _, s := range all {
		kids[s.Parent] = append(kids[s.Parent], s)
		if s.ID == root {
			idx.add(s)
		}
	}
	for stack := []uint64{root}; len(stack) > 0; {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, c := range kids[id] {
			idx.add(c)
			idx.children[id] = append(idx.children[id], c)
			stack = append(stack, c.ID)
		}
	}
	return idx
}

func (x *spanIndex) add(s obs.SpanData) {
	x.byID[s.ID] = s
	x.byName[s.Name] = append(x.byName[s.Name], s)
}

func (x *spanIndex) count() int { return len(x.byID) }

func span(s obs.SpanData) interval { return interval{s.Start, s.End} }

func spanDur(s obs.SpanData) time.Duration { return s.End.Sub(s.Start) }

// self is a span's self time: its duration minus the union of its
// children's intervals.
func (x *spanIndex) self(s obs.SpanData) time.Duration {
	kids := x.children[s.ID]
	ivs := make([]interval, len(kids))
	for i, c := range kids {
		ivs[i] = span(c)
	}
	return selfTime(span(s), ivs)
}

func durationsUS(spans []obs.SpanData) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = durUS(spanDur(s))
	}
	return out
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerMetrics derives one traced run's per-layer metrics from its spans
// and from the public Result and Report counters. Metrics of a layer the
// workload does not exercise read 0.
func layerMetrics(o *outcome, x *spanIndex, sc scenario) map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	n := float64(o.sent())

	// hetero2pipe facade: the benchmark's span around the public call minus
	// the scheduler run it wraps.
	if o.single != nil {
		m["facade.self_us_per_run"] = durUS(x.self(x.byID[o.rootID]))
	}

	// fleet front-end: its own time outside the concurrent device runs.
	if fr := o.fleet; fr != nil {
		for _, s := range x.byName["fleet_run"] {
			m["fleet.self_ms"] += durMS(x.self(s))
		}
		var longest, sum time.Duration
		primaries := 0
		for _, s := range x.byName["fleet_device"] {
			if a, ok := s.Attr("handoff"); ok && a.AsInt() == 1 {
				continue
			}
			d := spanDur(s)
			sum += d
			primaries++
			if d > longest {
				longest = d
			}
		}
		m["fleet.shard_skew"] = ratio(float64(longest)*float64(primaries), float64(sum))
		m["fleet.handoffs"] = float64(fr.Handoffs)
		m["fleet.failover_rounds"] = float64(len(x.byName["fleet_failover"]))
		most := 0
		for _, a := range fr.Assignments {
			most = max(most, len(a))
		}
		m["fleet.route_share_max"] = float64(most) / n
	}

	// stream window loop: window spans minus their plan and execute spans.
	// Plan spans are attributed to the window they ran under, except under
	// the aborted window of a halted run, which has no WindowStat.
	windows := x.byName["window"]
	var winSelf, planInWindows, execTotal time.Duration
	for _, w := range windows {
		winSelf += x.self(w)
		halted, _ := w.Attr("halted")
		for _, c := range x.children[w.ID] {
			switch {
			case c.Name == "plan" && halted.AsInt() == 0:
				planInWindows += spanDur(c)
			case c.Name == "execute":
				execTotal += spanDur(c)
			}
		}
	}
	nWin := float64(len(windows))
	m["stream.self_us_per_window"] = ratio(durUS(winSelf), nWin)

	var stats struct {
		windows, requests, replans, retried, retries, events int
		planWall                                             time.Duration
		hits, misses, planHits, planMisses, cells, reuse     uint64
		slices, stalls                                       int
		bubbleMS, slowSum, procMS                            float64
	}
	for i, r := range o.runs {
		stats.windows += r.Windows
		stats.replans += r.Replans
		stats.retried += r.Retried
		stats.retries += r.PlanRetries
		stats.events += r.EventsApplied
		stats.hits += r.CacheHits
		stats.misses += r.CacheMisses
		stats.planHits += r.PlanCacheHits
		stats.planMisses += r.PlanCacheMisses
		stats.reuse += r.IncrementalReuse
		procs := float64(soc.PresetByName(sc.devices[o.runDevice[i]].preset).NumProcessors())
		for _, ws := range r.WindowStats {
			stats.requests += ws.Requests
			stats.planWall += ws.PlanWall
			stats.cells += ws.DPCells
			stats.procMS += durMS(ws.ExecSpan) * procs
		}
		ex := r.Report.Executor
		stats.slices += ex.Slices
		stats.stalls += ex.AdmissionStalls
		stats.bubbleMS += ex.BubbleMS
		stats.slowSum += ex.MeanSlowdown * float64(ex.Slices)
	}
	m["stream.windows"] = float64(stats.windows)
	m["stream.reqs_per_window"] = ratio(float64(stats.requests), float64(stats.windows))
	var queueWait []float64
	var lossMS, backoffMS float64
	for _, tl := range o.timelines {
		if !tl.Completed {
			continue
		}
		queueWait = append(queueWait, durMS(tl.Breakdown.QueueWait))
		lossMS += durMS(tl.Breakdown.InterruptLoss)
		backoffMS += durMS(tl.Breakdown.Backoff)
	}
	m["stream.queue_wait_ms_p99"] = percentile(queueWait, 99)
	m["stream.replans"] = float64(stats.replans)
	m["stream.requeued"] = float64(stats.retried)
	m["stream.wasted_exec_frac"] = ratio(float64(stats.retried), float64(o.completed()+stats.retried))
	m["stream.interrupt_loss_ms"] = lossMS
	m["stream.backoff_ms"] = backoffMS
	m["stream.plan_retries"] = float64(stats.retries)

	// core planner: plan spans, their self time outside the partition DPs,
	// and the memo layers' hit ratios.
	plans := x.byName["plan"]
	planUS := durationsUS(plans)
	m["core.plan_us_p50"] = percentile(planUS, 50)
	m["core.plan_us_p99"] = percentile(planUS, 99)
	var planSelf time.Duration
	for _, p := range plans {
		planSelf += x.self(p)
	}
	m["core.plan_self_us_mean"] = ratio(durUS(planSelf), float64(len(plans)))
	m["core.dp_cells_per_plan"] = ratio(float64(stats.cells), float64(stats.planMisses))
	parts := x.byName["partition"]
	m["core.partition_calls"] = float64(len(parts))
	m["core.partition_us_p50"] = percentile(durationsUS(parts), 50)
	m["core.preplan_us_per_window"] = ratio(durUS(stats.planWall-planInWindows), float64(stats.windows))
	m["core.plan_cache_hit_frac"] = ratio(float64(stats.planHits), float64(stats.planHits+stats.planMisses))
	m["core.cost_cache_hit_frac"] = ratio(float64(stats.hits), float64(stats.hits+stats.misses))
	m["core.incremental_reuse_frac"] = ratio(float64(stats.reuse), float64(len(parts)))

	// pipeline executor: wall time of the window executions, and the
	// virtual-clock quality of what they executed.
	m["pipeline.execute_us_per_window"] = ratio(durUS(execTotal), nWin)
	m["pipeline.ns_per_slice"] = ratio(float64(execTotal), float64(stats.slices))
	m["pipeline.bubble_frac"] = ratio(stats.bubbleMS, stats.procMS)
	m["pipeline.mean_slowdown"] = ratio(stats.slowSum, float64(stats.slices))
	m["pipeline.admission_stalls"] = float64(stats.stalls)

	// soc: events applied, and the processor cost-table sets they staled,
	// replayed on a fresh copy of each device's preset.
	m["soc.events_applied"] = float64(stats.events)
	m["soc.cost_tables_invalidated"] = float64(tablesInvalidated(o, sc))

	m["obs.spans_per_req"] = float64(x.count()) / n
	return m
}

// tablesInvalidated replays, per device, the degradation events its runs
// applied (a prefix of its sorted timeline: failover replays apply none)
// and counts the processors whose cost tables each one staled.
func tablesInvalidated(o *outcome, sc scenario) int {
	applied := make([]int, len(sc.devices))
	for i, r := range o.runs {
		applied[o.runDevice[i]] += r.EventsApplied
	}
	total := 0
	for d, dev := range sc.devices {
		s := soc.PresetByName(dev.preset)
		events := soc.SortEvents(dev.events)
		for _, ev := range events[:min(applied[d], len(events))] {
			affected, err := s.Apply(ev)
			if err == nil {
				total += len(affected)
			}
		}
	}
	return total
}

// writeSpans writes the spans as JSON lines: id, parent, name, start (Unix
// ns) and duration (ns).
func writeSpans(path string, x *spanIndex) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range x.byID {
		rec := struct {
			ID     uint64 `json:"id"`
			Parent uint64 `json:"parent"`
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			Dur    int64  `json:"dur_ns"`
		}{s.ID, s.Parent, s.Name, s.Start.UnixNano(), int64(spanDur(s))}
		if err := enc.Encode(rec); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// registryTotal sums a counter across every label set it was recorded
// under.
func registryTotal(reg *obs.Registry, name string) uint64 {
	var total uint64
	for key, v := range reg.Snapshot().Counters {
		if key == name || strings.HasPrefix(key, name+"{") {
			total += v
		}
	}
	return total
}
