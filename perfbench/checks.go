package main

import (
	"fmt"
	"os"

	"hetero2pipe/internal/stream"
)

// checker counts the operations a benchmark invocation attempted (every
// request sent, in every run) and the correctness violations it found.
type checker struct {
	attempted, failed int
}

func (c *checker) fail(format string, args ...any) {
	c.failed++
	fmt.Fprintf(os.Stderr, "check failed: "+format+"\n", args...)
}

// checkOutcome verifies one run's outputs: every request completed exactly
// once or is reported unfinished, no completion precedes its arrival, and
// each run report's totals equal its result's.
func (c *checker) checkOutcome(o *outcome) {
	c.attempted += o.sent()
	for i, s := range o.sojourns {
		if o.done[i] && s < 0 {
			c.fail("request %d completed %v before its arrival", i, -s)
		}
		if !o.done[i] && s != 0 {
			c.fail("request %d is unfinished but has sojourn %v", i, s)
		}
	}
	completions := 0
	for _, r := range o.runs {
		completions += r.Report.Completed
		c.checkReport(r)
	}
	// Every run's completions are distinct requests of that run, so when
	// they add up to the requests done, none completed twice or on two
	// devices.
	if completions != o.completed() {
		c.fail("device runs completed %d requests, the run reports %d done", completions, o.completed())
	}
	if r := o.single; r != nil && len(r.Unfinished)+o.completed() != o.sent() {
		c.fail("%d unfinished + %d done != %d sent", len(r.Unfinished), o.completed(), o.sent())
	}
	if f := o.fleet; f != nil {
		rep := f.Report
		handoffs := 0
		for _, hs := range f.HandoffResults {
			for _, h := range hs {
				handoffs += h.Handoffs
			}
		}
		if rep.Requests != o.sent() || rep.Completed != o.completed() || rep.Handoffs != f.Handoffs || handoffs != f.Handoffs {
			c.fail("fleet report (requests %d, completed %d, handoffs %d) disagrees with result (%d, %d, %d; %d in failover runs)",
				rep.Requests, rep.Completed, rep.Handoffs, o.sent(), o.completed(), f.Handoffs, handoffs)
		}
	}
}

// checkReport compares one stream run's report with its result.
func (c *checker) checkReport(r *stream.Result) {
	rep := r.Report
	st := rep.Stream
	n := len(r.Completions)
	if rep.Requests != n || rep.Completed != n-len(r.Unfinished) ||
		st.Windows != r.Windows || st.Replans != r.Replans || st.Requeues != r.Retried ||
		st.PlanRetries != r.PlanRetries || st.EventsApplied != r.EventsApplied || st.Handoffs != r.Handoffs ||
		st.Unfinished != len(r.Unfinished) || st.DeadlineMisses != r.DeadlineMisses ||
		rep.Planner.CacheHits != r.CacheHits || rep.Planner.CacheMisses != r.CacheMisses ||
		rep.Planner.PlanCacheHits != r.PlanCacheHits || rep.Planner.PlanCacheMisses != r.PlanCacheMisses ||
		len(rep.Windows) != len(r.WindowStats) {
		c.fail("run report totals disagree with the result: report %+v, result windows %d", st, r.Windows)
	}
}

// checkTraced verifies what only a traced run records: each completed
// request's sojourn decomposition sums exactly to its sojourn, the metrics
// registry agrees with the results, and the span ring lost nothing.
func (c *checker) checkTraced(o *outcome, pr *probe, windowsBefore uint64) {
	if len(o.timelines) != o.sent() {
		c.fail("traced run kept %d timelines for %d requests", len(o.timelines), o.sent())
		return
	}
	for i, tl := range o.timelines {
		if !o.done[i] {
			continue
		}
		if !tl.Completed || tl.Sojourn != o.sojourns[i] || tl.Breakdown.VirtualSum() != tl.Sojourn {
			c.fail("request %d: decomposition %v sums to %v, sojourn %v (timeline %v)",
				i, tl.Breakdown, tl.Breakdown.VirtualSum(), o.sojourns[i], tl.Sojourn)
		}
	}
	windows := 0
	for _, r := range o.runs {
		windows += r.Windows
	}
	if got := registryTotal(pr.reg, "stream_windows_total") - windowsBefore; got != uint64(windows) {
		c.fail("registry counted %d windows, the results %d", got, windows)
	}
	if total, held := pr.spans.Total(), pr.spans.Capacity(); total > uint64(held) {
		c.fail("span ring overwrote %d of %d spans", total-uint64(held), total)
	}
}

// checkTail fails a run sized too small to report a p99 with at least
// tailBeyond samples beyond it.
func (c *checker) checkTail(what string, samples int) {
	if !tailSupported(samples, 99) {
		c.fail("%s: %d samples leave fewer than %d beyond the p99", what, samples, tailBeyond)
	}
}
