package main

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"time"
)

// metricDef describes one reported metric. End-to-end metrics carry the
// share of the baseline median by which they may worsen before a change
// counts as a regression; per-layer metrics name the end-to-end metric they
// should move and the workload that shows it.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	bound  float64
	target string
}

// endToEnd lists what a user of the system sees. The simulated metrics are
// plan quality on the virtual clock, a pure function of the seed; the host
// metrics are the scheduler's wall-clock cost.
var endToEnd = []metricDef{
	{name: "sojourn_p50_ms", unit: "ms", better: "lower", bound: 0.1},
	{name: "sojourn_p99_ms", unit: "ms", better: "lower", bound: 0.25},
	{name: "slo_miss_frac", unit: "frac", better: "lower", bound: 0.25},
	{name: "sim_rps", unit: "1/s", better: "higher", bound: 0.05},
	{name: "energy_mj_per_req", unit: "mJ", better: "lower", bound: 0.05},
	{name: "capacity_rps", unit: "1/s", better: "higher", bound: 0.1},
	{name: "host_rps", unit: "1/s", better: "higher", bound: 0.25},
	{name: "plan_wall_us_p50", unit: "us", better: "lower", bound: 0.25},
	{name: "plan_wall_us_p99", unit: "us", better: "lower", bound: 0.25},
	{name: "alloc_kb_per_req", unit: "KiB", better: "lower", bound: 0.05},
	{name: "peak_rss_mb", unit: "MiB", better: "lower", bound: 0.25},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
}

// perLayer lists the traced run's per-layer metrics, one group per module.
var perLayer = []metricDef{
	{name: "facade.self_us_per_run", unit: "us", better: "lower", target: "host_rps @ app-recurring"},
	{name: "fleet.self_ms", unit: "ms", better: "lower", target: "host_rps @ fleet-churn"},
	{name: "fleet.shard_skew", unit: "ratio", better: "lower", target: "host_rps @ fleet-churn"},
	{name: "fleet.handoffs", unit: "count", better: "lower", target: "sojourn_p99_ms, slo_miss_frac @ fleet-churn"},
	{name: "fleet.failover_rounds", unit: "count", better: "lower", target: "sojourn_p99_ms, slo_miss_frac @ fleet-churn"},
	{name: "fleet.route_share_max", unit: "frac", better: "lower", target: "sojourn_p99_ms, slo_miss_frac @ fleet-churn"},
	{name: "stream.self_us_per_window", unit: "us", better: "lower", target: "host_rps @ app-recurring"},
	{name: "stream.windows", unit: "count", better: "lower", target: "sojourn_p99_ms @ mixed-poisson"},
	{name: "stream.reqs_per_window", unit: "count", better: "higher", target: "sojourn_p99_ms @ mixed-poisson"},
	{name: "stream.queue_wait_ms_p99", unit: "ms", better: "lower", target: "sojourn_p99_ms @ mixed-poisson"},
	{name: "stream.replans", unit: "count", better: "lower", target: "sim_rps, sojourn_p99_ms @ fleet-churn"},
	{name: "stream.requeued", unit: "count", better: "lower", target: "sim_rps, sojourn_p99_ms @ fleet-churn"},
	{name: "stream.wasted_exec_frac", unit: "frac", better: "lower", target: "sim_rps, sojourn_p99_ms @ fleet-churn"},
	{name: "stream.interrupt_loss_ms", unit: "ms", better: "lower", target: "sim_rps, sojourn_p99_ms @ fleet-churn"},
	{name: "stream.backoff_ms", unit: "ms", better: "lower", target: "sim_rps, sojourn_p99_ms @ fleet-churn"},
	{name: "stream.plan_retries", unit: "count", better: "lower", target: "sim_rps, sojourn_p99_ms @ fleet-churn"},
	{name: "core.plan_us_p50", unit: "us", better: "lower", target: "plan_wall_us_p99 @ mixed-poisson"},
	{name: "core.plan_us_p99", unit: "us", better: "lower", target: "plan_wall_us_p99 @ mixed-poisson"},
	{name: "core.plan_self_us_mean", unit: "us", better: "lower", target: "plan_wall_us_p99 @ mixed-poisson"},
	{name: "core.dp_cells_per_plan", unit: "count", better: "lower", target: "plan_wall_us_p99 @ mixed-poisson"},
	{name: "core.partition_calls", unit: "count", better: "lower", target: "plan_wall_us_p99 @ mixed-poisson"},
	{name: "core.partition_us_p50", unit: "us", better: "lower", target: "plan_wall_us_p99 @ mixed-poisson"},
	{name: "core.preplan_us_per_window", unit: "us", better: "lower", target: "plan_wall_us_p50, host_rps @ app-recurring"},
	{name: "core.plan_cache_hit_frac", unit: "frac", better: "higher", target: "plan_wall_us_p50, host_rps @ app-recurring"},
	{name: "core.cost_cache_hit_frac", unit: "frac", better: "higher", target: "plan_wall_us_p99 @ fleet-churn"},
	{name: "core.incremental_reuse_frac", unit: "frac", better: "higher", target: "plan_wall_us_p99 @ fleet-churn"},
	{name: "pipeline.execute_us_per_window", unit: "us", better: "lower", target: "host_rps @ app-recurring"},
	{name: "pipeline.ns_per_slice", unit: "ns", better: "lower", target: "host_rps @ app-recurring"},
	{name: "pipeline.bubble_frac", unit: "frac", better: "lower", target: "sim_rps, sojourn_p50_ms @ mixed-poisson"},
	{name: "pipeline.mean_slowdown", unit: "ratio", better: "lower", target: "sim_rps, sojourn_p50_ms @ mixed-poisson"},
	{name: "pipeline.admission_stalls", unit: "count", better: "lower", target: "sim_rps, sojourn_p50_ms @ mixed-poisson"},
	{name: "soc.events_applied", unit: "count", better: "lower", target: "plan_wall_us_p99 @ fleet-churn"},
	{name: "soc.cost_tables_invalidated", unit: "count", better: "lower", target: "plan_wall_us_p99 @ fleet-churn"},
	{name: "profile.build_ms", unit: "ms", better: "lower", target: "setup_s @ all"},
	{name: "obs.traced_overhead_frac", unit: "frac", better: "lower", target: "host_rps @ all (tracing on)"},
	{name: "obs.spans_per_req", unit: "count", better: "lower", target: "host_rps @ all (tracing on)"},
	{name: "runtime.gc_cycles_per_kreq", unit: "count", better: "lower", target: "host_rps, alloc_kb_per_req @ all"},
	{name: "runtime.gc_pause_ms", unit: "ms", better: "lower", target: "host_rps, alloc_kb_per_req @ all"},
}

func durMS(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func durUS(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// completedSojournsMS lists the sojourns of the completed requests.
func completedSojournsMS(o *outcome) []float64 {
	out := make([]float64, 0, len(o.sojourns))
	for i, s := range o.sojourns {
		if o.done[i] {
			out = append(out, durMS(s))
		}
	}
	return out
}

// simSample keeps what the simulated metrics need from one run, and the
// run's fingerprint.
type simSample struct {
	sojourns []time.Duration
	done     []bool
	makespan time.Duration
	energyJ  float64 // every executed window, interrupted ones included
	print    uint64
}

func sampleOf(o *outcome) simSample {
	s := simSample{sojourns: o.sojourns, done: o.done, makespan: o.makespan, print: fingerprint(o)}
	for _, ws := range o.windows() {
		s.energyJ += ws.Objective.EnergyJoules
	}
	return s
}

// simMetrics are the plan-quality metrics on the virtual clock: each is
// the median over the input variants of its value on one variant, so one
// variant's unusually bursty arrivals cannot swing it.
func simMetrics(samples []simSample, limit time.Duration) map[string]float64 {
	per := make(map[string][]float64)
	for _, s := range samples {
		var soj []float64
		for i, d := range s.sojourns {
			if s.done[i] {
				soj = append(soj, durMS(d))
			}
		}
		n := float64(len(soj))
		for k, v := range map[string]float64{
			"sojourn_p50_ms":    percentile(soj, 50),
			"sojourn_p99_ms":    percentile(soj, 99),
			"slo_miss_frac":     sloMissFrac(s.sojourns, s.done, limit),
			"sim_rps":           n / s.makespan.Seconds(),
			"energy_mj_per_req": s.energyJ * 1e3 / n,
		} {
			per[k] = append(per[k], v)
		}
	}
	out := make(map[string]float64, len(per))
	for k, vs := range per {
		out[k] = median(vs)
	}
	return out
}

// hostMetrics are one timed run's wall-clock throughput and allocation.
func hostMetrics(o *outcome) map[string]float64 {
	n := float64(o.sent())
	return map[string]float64{
		"host_rps":         n / o.wall.Seconds(),
		"alloc_kb_per_req": float64(o.allocBytes) / 1024 / n,
	}
}

// planWallsUS lists the planner wall time of every window of the run.
func planWallsUS(o *outcome) []float64 {
	var out []float64
	for _, ws := range o.windows() {
		out = append(out, durUS(ws.PlanWall))
	}
	return out
}

// ladderRung probes one ladder rate: the offered rate the arrivals
// realise, the p99 sojourn and whether the backlog grew.
func ladderRung(o *outcome) rung {
	last := o.arrivals[len(o.arrivals)-1]
	return rung{
		rate:        float64(o.sent()) / last.Seconds(),
		p99:         time.Duration(percentile(completedSojournsMS(o), 99) * float64(time.Millisecond)),
		backlogGrew: backlogGrew(o.sojourns, o.done),
	}
}

// fingerprint hashes everything a run decided on the virtual clock: every
// request's fate and sojourn and every window's span, size and energy. Two
// runs of one scenario must hash alike, traced or not.
func fingerprint(o *outcome) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i, s := range o.sojourns {
		put(uint64(s))
		if o.done[i] {
			put(1)
		} else {
			put(0)
		}
	}
	put(uint64(o.makespan))
	for _, r := range o.runs {
		put(uint64(len(r.WindowStats)))
		for _, ws := range r.WindowStats {
			put(uint64(ws.Start))
			put(uint64(ws.End))
			put(uint64(ws.ExecSpan))
			put(uint64(ws.Requests))
			put(uint64(ws.Completed))
			put(uint64(ws.Requeued))
			put(math.Float64bits(ws.Objective.EnergyJoules))
		}
	}
	return h.Sum64()
}
