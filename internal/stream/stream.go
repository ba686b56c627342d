// Package stream runs Hetero²Pipe online: inference requests arrive over
// (virtual) time and the planner is invoked per planning window, the
// deployment mode Sec. V closes on — "in case of more inference requests,
// the planner should be scheduled more frequently to avoid enlarged search
// space". Windows execute back to back on the SoC; within a window the full
// two-step plan applies.
//
// The scheduler is degradation-aware: Config.Events injects thermal
// throttles, frequency scalings, processor offline/online transitions and
// bus-bandwidth squeezes on the same virtual clock. When an event falls
// inside a running window the window is interrupted: completions before the
// event stand, in-flight work is discarded and requeued, and the window is
// replanned against the degraded SoC. Events invalidate nothing: the
// planner's memos key on the SoC state they were computed in, so the
// replan re-measures only the tables of processors whose state is new to
// it, and a return to an earlier state plans from that state's memos. When
// a plan becomes infeasible (every processor a model needs is offline) the
// scheduler backs off on the virtual clock and retries, picking up
// recovery events as they come due.
package stream

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"slices"
	"strings"
	"time"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stats"
)

// Request is one arriving inference job.
type Request struct {
	// Model is the network to run.
	Model *model.Model
	// Arrival is the virtual arrival time.
	Arrival time.Duration
	// Deadline, when positive, is the sojourn budget: completing later than
	// Arrival+Deadline counts a deadline miss in the result (the request
	// still runs to completion — misses are reported, not dropped).
	Deadline time.Duration
	// Handoff marks a request re-admitted by fleet failover after its
	// original device went down. Completions of handoff requests are counted
	// on WindowStat.Handoffs and Result.Handoffs (and the
	// stream_handoffs_total counter); scheduling is otherwise identical.
	Handoff bool
	// SLO is the request's service-level objective class. Under frontier
	// planning (Config.Objective) each window resolves the strictest class
	// among its members (core.StrictestSLO) and executes the frontier point
	// serving it; under makespan planning the class is carried but inert.
	// The zero value defers to Config.SLO.
	SLO core.SLOClass
	// Trace is the request's distributed trace ID, stable across interrupts,
	// requeues and fleet failover handoffs. The fleet front-end assigns IDs
	// from the fleet-wide request index before sharding; a zero Trace on a
	// standalone traced run is assigned from the run-local index
	// (NewTraceID).
	Trace TraceID
}

// Config tunes the online scheduler.
type Config struct {
	// MaxWindow caps the number of requests planned together. Larger
	// windows give the planner more freedom but grow its search space —
	// the trade-off the paper's complexity analysis describes.
	MaxWindow int
	// MaxBatch, when above 1, coalesces lightweight same-model requests
	// inside each window (Appendix D).
	MaxBatch int
	// Events are degradation events injected on the virtual clock. They
	// are applied in At order; an event due mid-window interrupts and
	// replans the window.
	Events []soc.Event
	// MaxRetries bounds consecutive failed planning attempts for one
	// window before the run gives up. Zero means fail on the first
	// infeasible plan.
	MaxRetries int
	// RetryBackoff is the initial virtual-clock pause after a failed
	// planning attempt; it doubles per consecutive retry, saturating at
	// max(RetryBackoff, 1s) so arbitrarily large retry budgets never
	// overflow the virtual clock. Zero selects a default of 500µs.
	RetryBackoff time.Duration
	// HaltInfeasible turns an exhausted plan-retry budget from a run error
	// into a graceful halt: instead of failing, RunContext returns the
	// partial Result with Halted set, HaltedAt the virtual halt instant, and
	// Unfinished listing every request index not yet completed — the hook
	// fleet failover uses to re-route a dead device's backlog onto a healthy
	// peer. Non-infeasibility planning errors still fail the run.
	HaltInfeasible bool
	// Metrics, when set, receives stream-scheduler observability
	// (stream_windows_total, stream_replans_total, stream_requeues_total,
	// stream_plan_retries_total, stream_deadline_misses_total,
	// stream_events_applied_total, plus per-window plan/execute latency and
	// per-request sojourn histograms). The same registry is handed to the
	// executor for the real window executions unless the caller set
	// pipeline.Options.Metrics explicitly.
	Metrics *obs.Registry
	// Logger, when set, receives structured records for the scheduler's
	// state transitions: degradation events applied (info), window
	// interrupts (warn), plan-retry backoffs (warn), deadline misses (warn)
	// and window completions (debug). Every record carries the active span
	// id under the "span" key when tracing is armed. Nil disables logging.
	Logger *slog.Logger
	// Feed, when set, receives every completed WindowStat live — the ring
	// behind the observability server's /windows endpoint and its SSE
	// variant. The feed also carries the run's readiness signal (Feed.Ready
	// is true while RunContext is accepting admissions). Nil disables the
	// feed.
	Feed *Feed
	// Objective selects the planning mode per window: the zero value
	// (core.ObjectiveMakespan) plans the min-makespan schedule as always;
	// core.ObjectiveFrontier enumerates the Pareto frontier over (makespan,
	// throughput, energy, peak memory) and executes the point selected by
	// the window's resolved SLO class.
	Objective core.ObjectiveMode
	// SLO is the default class for requests that carry none. Unset falls
	// back to core.SLOLatencyCritical, whose selected plans have makespan
	// mode's makespan and are no worse on any other axis.
	SLO core.SLOClass
	// RequestTracing arms per-request lifecycle tracing: every request gets
	// a stable TraceID, a RequestTimeline of phase events on the virtual
	// clock (Result.Timelines) and a sojourn decomposition whose virtual
	// components sum exactly to the measured sojourn. A non-nil Traces store
	// arms tracing implicitly. The fleet runs its shards with RequestTracing
	// and no Traces: devices record timelines, and the fleet publishes each
	// stitched fleet-wide timeline once.
	RequestTracing bool
	// Traces, when set, receives every completed request's timeline — the
	// bounded flight recorder behind the observability server's /requests
	// endpoint. Setting it arms RequestTracing.
	Traces *TraceStore
	// SLOMonitor, when set, observes every request completion under its
	// resolved SLO class name — per-class error budgets, windowed burn
	// rates and the /slo endpoint. Independent of RequestTracing.
	SLOMonitor *obs.SLOMonitor
	// DeviceName stamps this scheduler's phase events and partial timelines
	// with a device identity (set by the fleet layer; "" for standalone
	// runs).
	DeviceName string
}

// DefaultConfig plans up to eight requests per window with batching on and
// a modest retry budget for degradation recovery.
func DefaultConfig() Config {
	return Config{MaxWindow: 8, MaxBatch: 32, MaxRetries: 6, RetryBackoff: 500 * time.Microsecond}
}

// WindowStat records one planning window's degradation bookkeeping.
type WindowStat struct {
	// Start and End bound the window on the virtual clock. For an
	// interrupted window End is the interrupting event's time.
	Start, End time.Duration
	// Requests is the window's size; Completed how many finished;
	// Requeued how many were discarded and pushed back by an interrupt.
	Requests, Completed, Requeued int
	// EventsApplied counts degradation events applied before or during
	// this window; PlanRetries counts failed planning attempts backed off.
	EventsApplied, PlanRetries int
	// Interrupted marks a window cut short by a degradation event.
	Interrupted bool
	// PlanWall is the real (wall-clock) time the planner spent on this
	// window, across every retry. ExecSpan is the window's virtual
	// execution span as planned; for an interrupted window the realised
	// span is End − Start instead.
	PlanWall, ExecSpan time.Duration
	// Account is the planner's work on this window: the sum of its planning
	// attempts' accounts, failed attempts included — cost-cache traffic, DP
	// cells, DP-row reuse and, with core.Options.PlanCache, one plan-cache
	// hit or miss per attempt.
	core.Account
	// Handoffs counts completions in this window of requests re-admitted by
	// fleet failover (Request.Handoff).
	Handoffs int
	// Objective is the executed objective vector of the plan this window
	// ran (populated in every mode — under makespan planning it prices the
	// winning plan, under frontier planning the selected point).
	Objective core.Objective
	// SLO is the class the window resolved (the strictest among its
	// members, or the config default); FrontierSize the number of
	// non-dominated points the planner returned. Both are zero-valued under
	// makespan planning.
	SLO          core.SLOClass
	FrontierSize int
}

// windowLog collects a run's WindowStats in chunks, each twice its
// predecessor's size up to maxWindowChunk, and hands the Result one
// exact-size copy. Collecting n stats so allocates about 2n of them plus
// one chunk, where regrowing one slice by append allocates about 5n (large
// slices grow in 1.25× steps) and leaves the Result's up to a quarter
// empty; and the log holds nothing between runs.
type windowLog struct {
	chunks [][]WindowStat
	n      int
}

// maxWindowChunk caps a windowLog chunk at about 56 KiB of WindowStats.
const maxWindowChunk = 256

// add appends ws to the log.
func (l *windowLog) add(ws WindowStat) {
	last := len(l.chunks) - 1
	if last < 0 || len(l.chunks[last]) == cap(l.chunks[last]) {
		size := 8
		if last >= 0 {
			size = min(2*cap(l.chunks[last]), maxWindowChunk)
		}
		l.chunks = append(l.chunks, make([]WindowStat, 0, size))
		last++
	}
	l.chunks[last] = append(l.chunks[last], ws)
	l.n++
}

// stats returns the logged stats in order in one slice of length and
// capacity n, or nil for an empty log.
func (l *windowLog) stats() []WindowStat {
	if l.n == 0 {
		return nil
	}
	out := make([]WindowStat, 0, l.n)
	for _, c := range l.chunks {
		out = append(out, c...)
	}
	return out
}

// Result aggregates the online run.
type Result struct {
	// Completions[i] is the absolute completion time of request i.
	Completions []time.Duration
	// Sojourns[i] is completion − arrival for request i.
	Sojourns []time.Duration
	// Makespan is the completion time of the last request — and only that.
	// Idle jumps to a late arrival and failed-plan retry backoff can leave
	// the virtual clock past the last completion; that scheduler-side time
	// is deliberately not folded in.
	Makespan time.Duration
	// Windows is the number of planning invocations.
	Windows int
	// CacheHits and CacheMisses are the cost-cache traffic of this run's
	// planning attempts, a halted window's included: hits are cost tables
	// reused from earlier windows (or earlier in the same window), misses
	// are fresh measurements. A steady-state stream of recurring models
	// converges to one miss per distinct (model, batch) and hits everywhere
	// else.
	CacheHits, CacheMisses uint64
	// PlanCacheHits and PlanCacheMisses are the whole-plan cache traffic of
	// this run's planning attempts (both zero when core.Options.PlanCache is
	// disabled): a hit is a window served a memoized plan with no
	// partition/mitigation/steal/tail work at all.
	PlanCacheHits, PlanCacheMisses uint64
	// IncrementalReuse counts partition DPs this run served from the DP rows
	// memoized on the planner's cost-cache entries — fully reused or resumed
	// mid-table after a degradation event.
	IncrementalReuse uint64
	// DPCells counts the Algorithm-1 DP cells this run's planning attempts
	// evaluated, a halted window's included.
	DPCells uint64
	// Replans counts windows interrupted by a degradation event and
	// replanned on the degraded SoC.
	Replans int
	// Retried counts request executions discarded by an interrupt and
	// requeued (one request interrupted twice counts twice).
	Retried int
	// PlanRetries counts planning attempts that failed (typically every
	// capable processor offline) and were retried after a backoff.
	PlanRetries int
	// DeadlineMisses counts requests that completed after their deadline.
	DeadlineMisses int
	// EventsApplied counts degradation events consumed during the run.
	EventsApplied int
	// Handoffs counts completed requests that carried Request.Handoff — work
	// this run finished on behalf of a failed fleet peer.
	Handoffs int
	// Halted marks a run stopped gracefully by Config.HaltInfeasible after
	// an exhausted plan-retry budget; HaltedAt is the virtual instant the
	// budget ran out and Unfinished lists every request index (queued or not
	// yet arrived) left incomplete. Their Completions/Sojourns slots are
	// zero. All three are zero-valued on a run that finishes normally.
	Halted     bool
	HaltedAt   time.Duration
	Unfinished []int
	// MissesBySLO attributes deadline misses to resolved SLO class names
	// (request class, else Config.SLO, else latency_critical). The values
	// sum to DeadlineMisses; nil when the run had none.
	MissesBySLO map[string]int
	// Timelines holds one RequestTimeline per request when request tracing
	// is armed (Config.RequestTracing or Config.Traces), indexed like
	// Completions. Requests left unserved by a halt carry partial timelines
	// (Completed false) — the fleet layer stitches them across failover
	// hops. Nil when tracing is off.
	Timelines []RequestTimeline
	// WindowStats details each planning window in order.
	WindowStats []WindowStat
	// Report is the structured run report, always populated on success; its
	// figures match this Result's fields exactly (see obs.RunReport).
	Report *obs.RunReport
}

// MeanSojourn returns the average sojourn of the completed requests (a
// halted run's Unfinished requests have none).
func (r *Result) MeanSojourn() time.Duration {
	return meanSojourn(r.completedSojourns())
}

// meanSojourn averages sojourns; 0 when there are none.
func meanSojourn(sojourns []time.Duration) time.Duration {
	if len(sojourns) == 0 {
		return 0
	}
	var sum time.Duration
	for _, s := range sojourns {
		sum += s
	}
	return sum / time.Duration(len(sojourns))
}

// P95Sojourn returns the 95th-percentile sojourn of the completed requests.
func (r *Result) P95Sojourn() time.Duration {
	return r.SojournQuantile(95)
}

// SojournQuantile returns the p-th percentile sojourn of the completed
// requests (nearest rank, p in [0,100]) computed exactly from the recorded
// sojourns — the ground-truth counterpart of the bucket-interpolated
// obs.HistogramSnapshot.Quantile estimate.
func (r *Result) SojournQuantile(p int) time.Duration {
	return stats.NearestRank(r.sortedSojourns(), p)
}

// completedSojourns returns the sojourns of the requests the run completed:
// every slot, unless a halt left Unfinished requests, whose zero slots are
// dropped. The slice aliases Sojourns when nothing is dropped.
func (r *Result) completedSojourns() []time.Duration {
	if len(r.Unfinished) == 0 {
		return r.Sojourns
	}
	unfinished := make([]bool, len(r.Sojourns))
	for _, i := range r.Unfinished {
		unfinished[i] = true
	}
	out := make([]time.Duration, 0, len(r.Sojourns)-len(r.Unfinished))
	for i, s := range r.Sojourns {
		if !unfinished[i] {
			out = append(out, s)
		}
	}
	return out
}

// sortedSojourns returns a sorted copy of the completed requests' sojourns.
func (r *Result) sortedSojourns() []time.Duration {
	sorted := slices.Clone(r.completedSojourns())
	slices.Sort(sorted)
	return sorted
}

// Scheduler drives the per-window planning loop.
type Scheduler struct {
	planner *core.Planner
	cfg     Config
	events  []soc.Event // validated, sorted copy of cfg.Events
}

// NewScheduler wraps a planner for online use.
func NewScheduler(planner *core.Planner, cfg Config) (*Scheduler, error) {
	if planner == nil {
		return nil, errors.New("stream: nil planner")
	}
	if cfg.MaxWindow < 1 {
		return nil, fmt.Errorf("stream: max window %d < 1", cfg.MaxWindow)
	}
	if cfg.MaxBatch < 1 {
		cfg.MaxBatch = 1
	}
	if cfg.MaxRetries < 0 {
		return nil, fmt.Errorf("stream: max retries %d < 0", cfg.MaxRetries)
	}
	if cfg.RetryBackoff <= 0 {
		cfg.RetryBackoff = 500 * time.Microsecond
	}
	for i := range cfg.Events {
		if err := cfg.Events[i].Validate(); err != nil {
			return nil, fmt.Errorf("stream: event %d: %w", i, err)
		}
	}
	return &Scheduler{planner: planner, cfg: cfg, events: soc.SortEvents(cfg.Events)}, nil
}

// RunContext executes the request stream to completion. Requests must be
// sorted by arrival time. The virtual clock advances window by window: each
// planning round takes every request that has arrived (up to MaxWindow,
// FIFO), plans it, executes the window, and the clock jumps to the window's
// completion — or to the next arrival when the SoC is idle.
//
// Degradation events due at or before the clock are applied to the
// planner's SoC before each window is planned. An event due strictly inside a
// window's execution interrupts it: completions before the event stand,
// the rest of the window is requeued at the head of the queue and
// replanned after the event applies. Work in flight at the interrupt is
// discarded — a conservative model of migration off a degraded processor.
//
// Cancellation is checked at every window boundary, inside the planner and
// inside the executor's clock loop, so a cancelled context aborts within
// one planning window and returns an error wrapping ctx.Err().
func (s *Scheduler) RunContext(ctx context.Context, requests []Request, execOpts pipeline.Options) (*Result, error) {
	n := len(requests)
	res := &Result{
		Completions: make([]time.Duration, n),
		Sojourns:    make([]time.Duration, n),
	}
	for i := 1; i < n; i++ {
		if requests[i].Arrival < requests[i-1].Arrival {
			return nil, fmt.Errorf("stream: requests not sorted by arrival at %d", i)
		}
	}
	// The executor publishes into the stream's registry for the real window
	// executions unless the caller wired its own; the planner's internal
	// candidate evaluations stay unmetered either way (their exec options
	// come from core.Options.ExecOptions).
	if execOpts.Metrics == nil {
		execOpts.Metrics = s.cfg.Metrics
	}
	reg := s.cfg.Metrics
	mWindows := reg.Counter("stream_windows_total")
	mReplans := reg.Counter("stream_replans_total")
	mRequeues := reg.Counter("stream_requeues_total")
	mPlanRetries := reg.Counter("stream_plan_retries_total")
	mDeadlineMisses := reg.Counter("stream_deadline_misses_total")
	mEvents := reg.Counter("stream_events_applied_total")
	mHandoffs := reg.Counter("stream_handoffs_total")
	mPlanSeconds := reg.Histogram("stream_window_plan_seconds", obs.LatencyBuckets())
	mExecSeconds := reg.Histogram("stream_window_exec_seconds", obs.LatencyBuckets())
	mSojourn := reg.Histogram("stream_sojourn_seconds", obs.LatencyBuckets())

	// Per-request tracing: nil when unarmed (every reqTracer hook is
	// nil-receiver-safe, so the loop below instruments unconditionally).
	var tracer *reqTracer
	if s.cfg.RequestTracing || s.cfg.Traces != nil {
		tracer = newReqTracer(requests, s.cfg.DeviceName, s.resolveSLO(core.SLOClass{}).String())
	}

	// Root span of the run: every window, plan, replan and executor slice
	// span descends from it. The procs attribute carries the processor IDs
	// the Chrome-trace converter needs for its track names.
	procIDs := make([]string, s.planner.SoC().NumProcessors())
	for k := range procIDs {
		procIDs[k] = s.planner.SoC().Processors[k].ID
	}
	ctx, runSpan := obs.StartSpan(ctx, "stream_run",
		obs.Int("requests", int64(n)),
		obs.Str("soc", s.planner.SoC().Name),
		obs.Str("procs", strings.Join(procIDs, ",")))
	defer runSpan.End()

	// While the loop below runs, the scheduler is accepting admissions:
	// the feed's readiness signal (the obs server's /readyz). Fan-out drops
	// on slow subscribers mirror onto stream_feed_drops_total.
	s.cfg.Feed.bindDrops(reg.Counter("stream_feed_drops_total"))
	s.cfg.Feed.start()
	defer s.cfg.Feed.stop()

	// Observability that is off costs the window loop nothing: every span
	// start sits behind tracing and every log call behind logging, so no
	// attribute or argument slice is built for a recorder or logger that is
	// not there (StartSpan and the variadic log arguments both allocate
	// before they could check).
	tracing, logging := obs.TracingEnabled(ctx), s.cfg.Logger != nil
	logAt := func(level slog.Level, msg string, sp *obs.Span, args ...any) {
		s.cfg.Logger.Log(ctx, level, msg, append(args, "span", sp.IDHex())...)
	}

	// planned sums every planning attempt's account: each window's, and
	// those of a halted window, which no WindowStat holds.
	var planned core.Account
	var execAgg execAggregate
	var windows windowLog
	now := time.Duration(0)
	next := 0       // next unadmitted arrival
	var queue []int // admitted, uncompleted request indices, FIFO
	eventIdx := 0   // next unapplied event in s.events

	// applyDue applies every event with At ≤ now. The planner's memos key
	// on the SoC state, so nothing is invalidated: the next plan looks its
	// tables, rows and plans up in the new state. Returns how many events
	// applied.
	applyDue := func(sp *obs.Span) (int, error) {
		applied := 0
		for eventIdx < len(s.events) && s.events[eventIdx].At <= now {
			ev := s.events[eventIdx]
			affected, err := s.planner.SoC().Apply(ev)
			if err != nil {
				return applied, fmt.Errorf("stream: applying event %v: %w", ev, err)
			}
			if logging {
				logAt(slog.LevelInfo, "degradation event applied", sp,
					"event", ev.String(), "at", now, "staled_processors", len(affected))
			}
			eventIdx++
			applied++
		}
		res.EventsApplied += applied
		mEvents.Add(uint64(applied))
		return applied, nil
	}

	record := func(global int, done time.Duration, ws *WindowStat, sp *obs.Span) {
		res.Completions[global] = done
		res.Sojourns[global] = done - requests[global].Arrival
		mSojourn.ObserveDuration(res.Sojourns[global])
		if requests[global].Handoff {
			ws.Handoffs++
			res.Handoffs++
			mHandoffs.Inc()
		}
		slo := s.resolveSLO(requests[global].SLO).String()
		missed := false
		if d := requests[global].Deadline; d > 0 && res.Sojourns[global] > d {
			missed = true
			res.DeadlineMisses++
			mDeadlineMisses.Inc()
			// Per-class miss attribution: the labeled counter feeding the
			// /slo view, and its Result-side mirror.
			reg.WithLabels("slo", slo).Counter("stream_deadline_miss_total").Inc()
			if res.MissesBySLO == nil {
				res.MissesBySLO = make(map[string]int)
			}
			res.MissesBySLO[slo]++
			if logging {
				logAt(slog.LevelWarn, "deadline miss", sp,
					"request", global, "sojourn", res.Sojourns[global], "deadline", d,
					"slo", slo, "trace", tracer.traceID(global))
			}
		}
		s.cfg.SLOMonitor.Observe(slo, done, missed)
		tracer.complete(global, done, missed)
		if done > res.Makespan {
			res.Makespan = done
		}
	}

runLoop:
	for next < n || len(queue) > 0 {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("stream: run cancelled: %w", err)
		}
		// Idle: jump to the next arrival.
		if len(queue) == 0 && requests[next].Arrival > now {
			now = requests[next].Arrival
		}
		ws := WindowStat{Start: now}
		wctx, wspan := ctx, (*obs.Span)(nil)
		if tracing {
			wctx, wspan = obs.StartSpan(ctx, "window", obs.Int("window", int64(res.Windows)))
		}
		if applied, err := applyDue(wspan); err != nil {
			return nil, err
		} else {
			ws.EventsApplied += applied
		}

		// Plan, retrying with saturating exponential virtual backoff when
		// the degraded SoC leaves no feasible partition (e.g. every
		// processor offline). Backoff advances the clock, which may bring a
		// recovery event due — and new arrivals: admission re-runs at the
		// top of every attempt so the replanned window sees the true queue,
		// not the one frozen before the first failure.
		planStart := time.Now()
		var sched *pipeline.Schedule
		var groups []core.BatchGroup
		var take int
		var window []int
		var winSLO core.SLOClass
		tracer.beginWindow(res.Windows, ws.Start)
		for attempt := 0; ; attempt++ {
			// Admit everything that has arrived by now.
			for next < n && requests[next].Arrival <= now {
				tracer.enqueue(next, requests[next].Arrival)
				queue = append(queue, next)
				next++
			}
			take = min(len(queue), s.cfg.MaxWindow)
			window = queue[:take]
			tracer.admitWindow(window, now)
			models := make([]*model.Model, take)
			for i, global := range window {
				models[i] = requests[global].Model
			}
			// The resolved class can change between attempts: backoff admits
			// new arrivals, and a stricter member tightens the whole window.
			winSLO = s.windowSLO(requests, window)
			var acc core.Account
			var err error
			sched, groups, ws.FrontierSize, acc, err = s.planWindow(wctx, models, winSLO)
			ws.Account.Add(acc)
			if err == nil {
				break
			}
			if !errors.Is(err, core.ErrInfeasiblePartition) {
				return nil, fmt.Errorf("stream: planning window at %v: %w", now, err)
			}
			if attempt >= s.cfg.MaxRetries {
				if !s.cfg.HaltInfeasible {
					return nil, fmt.Errorf("stream: planning window at %v: %w", now, err)
				}
				// Graceful halt: hand the unserved backlog — the admitted
				// queue plus every request still to arrive — back to the
				// caller for fleet failover. The aborted window never
				// executed, so it is not appended to WindowStats; its plan
				// retries are already on the run totals, and its attempts'
				// accounts join them here.
				planned.Add(ws.Account)
				res.Unfinished = append(append([]int(nil), queue...), intRange(next, n)...)
				res.Halted = true
				res.HaltedAt = now
				tracer.halt(now, queue)
				wspan.SetAttrs(obs.Bool("halted", true), obs.Dur("vt_end", now))
				wspan.End()
				if logging {
					logAt(slog.LevelWarn, "run halted: plan-retry budget exhausted", wspan,
						"at", now, "unfinished", len(res.Unfinished))
				}
				break runLoop
			}
			res.PlanRetries++
			ws.PlanRetries++
			mPlanRetries.Inc()
			backoff := retryBackoff(s.cfg.RetryBackoff, attempt)
			if tracing {
				_, rsp := obs.StartSpan(wctx, "plan_retry",
					obs.Int("attempt", int64(attempt)), obs.Dur("backoff", backoff))
				rsp.End()
			}
			if logging {
				logAt(slog.LevelWarn, "plan retry backoff", wspan,
					"attempt", attempt, "backoff", backoff, "at", now)
			}
			now += backoff
			if applied, aerr := applyDue(wspan); aerr != nil {
				return nil, aerr
			} else {
				ws.EventsApplied += applied
			}
		}
		// The plan stands: `now` is the window's execution start after any
		// retry backoff. Settle every member's queue-wait/backoff components
		// and spread the planner's wall time across them.
		tracer.planned(now)
		ws.PlanWall = time.Since(planStart)
		tracer.attributePlanWall(ws.PlanWall)
		mPlanSeconds.ObserveDuration(ws.PlanWall)
		planned.Add(ws.Account)
		ws.Requests = take
		if s.cfg.Objective == core.ObjectiveFrontier {
			ws.SLO = winSLO
			// Per-class selection traffic: one increment per window, labeled
			// by the resolved class.
			reg.WithLabels("slo", winSLO.String()).Counter("stream_objective_choice_total").Inc()
			wspan.SetAttrs(
				obs.Str("slo", winSLO.String()),
				obs.Int("frontier_size", int64(ws.FrontierSize)))
		}

		// vt_start is the window's execution start on the virtual clock —
		// `now` after any retry backoff. The executor's slice spans
		// (children of this window via wctx) carry window-relative virtual
		// times; the Chrome converter re-bases them on this attribute.
		wspan.SetAttrs(obs.Dur("vt_start", now), obs.Int("requests", int64(take)))

		exec, err := pipeline.ExecuteContext(wctx, sched, execOpts)
		if err != nil {
			return nil, fmt.Errorf("stream: executing window at %v: %w", now, err)
		}
		ws.ExecSpan = exec.Makespan
		// The window's executed objective vector — under frontier planning
		// this is the selected point realised, under makespan planning the
		// winner priced on the same axes.
		ws.Objective = core.Objective{
			Makespan:        exec.Makespan,
			Throughput:      exec.Throughput(),
			EnergyJoules:    exec.EnergyJoules,
			PeakMemoryBytes: exec.PeakMemoryBytes,
		}
		mExecSeconds.ObserveDuration(exec.Makespan)
		execAgg.fold(exec)

		// Does the next event land strictly inside this window's execution?
		windowEnd := now + exec.Makespan
		interruptAt := time.Duration(-1)
		if eventIdx < len(s.events) && s.events[eventIdx].At < windowEnd {
			interruptAt = s.events[eventIdx].At
		}

		if interruptAt < 0 {
			for pos, g := range groups {
				done := now + exec.Completions[pos]
				for _, local := range g.Requests {
					record(window[local], done, &ws, wspan)
				}
			}
			queue = queue[take:]
			now = windowEnd
			ws.Completed = take
			ws.End = now
		} else {
			// Interrupt: completions at or before the event stand; the rest
			// of the window is requeued (FIFO order preserved) and replanned
			// next round on the post-event SoC.
			survived := make(map[int]bool, take)
			for pos, g := range groups {
				done := now + exec.Completions[pos]
				if done > interruptAt {
					continue
				}
				for _, local := range g.Requests {
					record(window[local], done, &ws, wspan)
					survived[local] = true
				}
			}
			requeue := make([]int, 0, take-len(survived))
			for local, global := range window {
				if !survived[local] {
					requeue = append(requeue, global)
					tracer.interrupt(global, interruptAt)
				}
			}
			queue = append(requeue, queue[take:]...)
			now = interruptAt
			res.Replans++
			res.Retried += len(requeue)
			mReplans.Inc()
			mRequeues.Add(uint64(len(requeue)))
			ws.Completed = len(survived)
			ws.Requeued = len(requeue)
			ws.Interrupted = true
			ws.End = now
			if tracing {
				_, psp := obs.StartSpan(wctx, "replan",
					obs.Dur("interrupt_at", interruptAt), obs.Int("completed", int64(len(survived))))
				psp.End()
				_, qsp := obs.StartSpan(wctx, "requeue", obs.Int("requests", int64(len(requeue))))
				qsp.End()
			}
			if logging {
				logAt(slog.LevelWarn, "window interrupted", wspan,
					"window", res.Windows, "interrupt_at", interruptAt, "requeued", len(requeue))
			}
		}
		wspan.SetAttrs(
			obs.Dur("vt_end", ws.End),
			obs.Bool("interrupted", ws.Interrupted),
			obs.Int("completed", int64(ws.Completed)))
		if ws.Interrupted {
			wspan.SetAttrs(obs.Dur("interrupt_at", interruptAt))
		}
		wspan.End()
		res.Windows++
		mWindows.Inc()
		windows.add(ws)
		s.cfg.Feed.publish(ws)
		if logging {
			logAt(slog.LevelDebug, "window complete", wspan,
				"window", res.Windows-1, "requests", ws.Requests, "completed", ws.Completed,
				"start", ws.Start, "end", ws.End)
		}
	}
	// Makespan is already the maximum completion time recorded above. The
	// clock (now) may legitimately sit past it after failed-plan backoff or
	// an idle jump, and that scheduler-side time must not be folded into
	// Makespan — a previous version did, inflating it on runs whose final
	// window retried after its last completion.
	res.CacheHits, res.CacheMisses = planned.CacheHits, planned.CacheMisses
	res.PlanCacheHits, res.PlanCacheMisses = planned.PlanCacheHits, planned.PlanCacheMisses
	res.IncrementalReuse, res.DPCells = planned.IncrementalReuse, planned.DPCells
	res.WindowStats = windows.stats()
	if tracer != nil {
		res.Timelines = tracer.timelines()
		// Completed timelines feed the flight recorder; partial ones (halt
		// leftovers) stay on the Result for the fleet layer to stitch across
		// the failover hop.
		for i := range res.Timelines {
			if res.Timelines[i].Completed {
				s.cfg.Traces.Put(res.Timelines[i])
			}
		}
	}
	res.Report = s.buildReport(res, n, &execAgg)
	return res, nil
}

// resolveSLO is the one fallback chain for a class: slo itself, else the
// config default, else latency-critical. It resolves each request's class
// for miss attribution, SLO budget accounting and the tracer's default, and
// each window's strictest member class (windowSLO).
func (s *Scheduler) resolveSLO(slo core.SLOClass) core.SLOClass {
	if slo.Kind == core.SLOUnset {
		slo = s.cfg.SLO
	}
	if slo.Kind == core.SLOUnset {
		slo = core.SLOLatencyCritical
	}
	return slo
}

// maxRetryBackoff caps a single failed-plan backoff pause. Callers with a
// base RetryBackoff above the cap keep their base (never pause shorter than
// configured); what saturates is the exponential growth.
const maxRetryBackoff = time.Second

// retryBackoff returns the virtual-clock pause after the given failed
// planning attempt: base doubled per attempt, saturating at
// max(base, maxRetryBackoff). The saturation replaces a raw base<<attempt,
// which overflows time.Duration around attempt 45 and moved the virtual
// clock backwards under large MaxRetries budgets.
func retryBackoff(base time.Duration, attempt int) time.Duration {
	ceiling := maxRetryBackoff
	if base > ceiling {
		ceiling = base
	}
	b := base
	for i := 0; i < attempt && b < ceiling; i++ {
		b <<= 1
	}
	if b > ceiling {
		b = ceiling
	}
	return b
}

// execAggregate accumulates executor results across a run's windows for the
// run report. Interrupted windows fold in as executed: their discarded tail
// still describes work the SoC performed before the interrupt on the
// simulated timeline.
type execAggregate struct {
	slices  int
	bubble  time.Duration
	stalls  int
	peakMem int64
	slowSum float64
	slowMax float64
	slowN   int
}

func (a *execAggregate) fold(r *pipeline.Result) {
	a.slices += len(r.Timeline)
	a.bubble += r.BubbleTime
	a.stalls += r.AdmissionStalls
	if r.PeakMemoryBytes > a.peakMem {
		a.peakMem = r.PeakMemoryBytes
	}
	for _, e := range r.Timeline {
		a.slowSum += e.Slowdown
		a.slowN++
		if e.Slowdown > a.slowMax {
			a.slowMax = e.Slowdown
		}
	}
}

// buildReport assembles the structured run report from the finished Result.
// Every figure mirrors a Result field exactly (the acceptance invariant the
// obs tests pin); the per-layer breakdowns add only derived ratios and
// unit conversions.
func (s *Scheduler) buildReport(res *Result, requests int, agg *execAggregate) *obs.RunReport {
	// One sort serves all three report percentiles (SojournQuantile itself
	// copies and sorts per call — fine one-off, wasteful three times here).
	sorted := res.sortedSojourns()
	p50, p95, p99 := stats.NearestRank(sorted, 50), stats.NearestRank(sorted, 95), stats.NearestRank(sorted, 99)
	rep := &obs.RunReport{
		SoC:           s.planner.SoC().Name,
		Requests:      requests,
		Completed:     requests - len(res.Unfinished),
		MakespanMS:    durMS(res.Makespan),
		MeanSojournMS: durMS(meanSojourn(sorted)),
		P50SojournMS:  durMS(p50),
		P95SojournMS:  durMS(p95),
		P99SojournMS:  durMS(p99),
		Planner: obs.PlannerReport{
			CacheHits:        res.CacheHits,
			CacheMisses:      res.CacheMisses,
			PlanCacheHits:    res.PlanCacheHits,
			PlanCacheMisses:  res.PlanCacheMisses,
			IncrementalReuse: res.IncrementalReuse,
			DPCells:          res.DPCells,
		},
		Executor: obs.ExecutorReport{
			Slices:          agg.slices,
			BubbleMS:        durMS(agg.bubble),
			AdmissionStalls: agg.stalls,
			PeakMemoryBytes: agg.peakMem,
			MaxSlowdown:     agg.slowMax,
		},
		Stream: obs.StreamReport{
			Windows:        res.Windows,
			Replans:        res.Replans,
			Requeues:       res.Retried,
			PlanRetries:    res.PlanRetries,
			DeadlineMisses: res.DeadlineMisses,
			EventsApplied:  res.EventsApplied,
			Handoffs:       res.Handoffs,
			Halted:         res.Halted,
			Unfinished:     len(res.Unfinished),
		},
	}
	if len(res.MissesBySLO) > 0 {
		rep.Stream.DeadlineMissesBySLO = make(map[string]int, len(res.MissesBySLO))
		for class, misses := range res.MissesBySLO {
			rep.Stream.DeadlineMissesBySLO[class] = misses
		}
	}
	if res.Timelines != nil {
		rep.Decomposition = DecomposeTimelines(res.Timelines)
	}
	if total := res.CacheHits + res.CacheMisses; total > 0 {
		rep.Planner.CacheHitRatio = float64(res.CacheHits) / float64(total)
	}
	if total := res.PlanCacheHits + res.PlanCacheMisses; total > 0 {
		rep.Planner.PlanCacheHitRatio = float64(res.PlanCacheHits) / float64(total)
	}
	if agg.slowN > 0 {
		rep.Executor.MeanSlowdown = agg.slowSum / float64(agg.slowN)
	}
	if len(res.WindowStats) > 0 {
		rep.Windows = make([]obs.WindowReport, len(res.WindowStats))
	}
	for i, ws := range res.WindowStats {
		rep.Planner.PlanWallMS += durMS(ws.PlanWall)
		rep.Windows[i] = obs.WindowReport{
			Index:            i,
			StartMS:          durMS(ws.Start),
			EndMS:            durMS(ws.End),
			PlanWallMS:       durMS(ws.PlanWall),
			ExecMS:           durMS(ws.ExecSpan),
			Requests:         ws.Requests,
			Completed:        ws.Completed,
			Requeued:         ws.Requeued,
			PlanRetries:      ws.PlanRetries,
			CacheHits:        ws.CacheHits,
			CacheMisses:      ws.CacheMisses,
			PlanCacheHits:    ws.PlanCacheHits,
			PlanCacheMisses:  ws.PlanCacheMisses,
			DPCells:          ws.DPCells,
			IncrementalReuse: ws.IncrementalReuse,
			Interrupted:      ws.Interrupted,
			Handoffs:         ws.Handoffs,
			EnergyJoules:     ws.Objective.EnergyJoules,
			SLO:              ws.SLO.String(),
			FrontierSize:     ws.FrontierSize,
		}
	}
	return rep
}

// durMS converts a duration to float milliseconds for the report.
func durMS(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}

// DecomposeTimelines aggregates completed timelines' sojourn breakdowns into
// the report's decomposition roll-up (shared by the stream and fleet report
// builders).
func DecomposeTimelines(tls []RequestTimeline) *obs.DecompositionReport {
	d := &obs.DecompositionReport{}
	for i := range tls {
		if !tls[i].Completed {
			continue
		}
		b := tls[i].Breakdown
		d.Requests++
		d.QueueWaitMS += durMS(b.QueueWait)
		d.BackoffMS += durMS(b.Backoff)
		d.InterruptLossMS += durMS(b.InterruptLoss)
		d.ExecMS += durMS(b.Exec)
		d.HandoffTransitMS += durMS(b.HandoffTransit)
		d.PlanWallMS += durMS(b.PlanWall)
	}
	return d
}

// planWindow plans one window's models, with or without Appendix-D
// batching, and returns the schedule plus the group→request mapping and
// the planning call's account (on failure too). Under Config.Objective ==
// core.ObjectiveFrontier the planner enumerates the Pareto frontier and the
// window executes the point slo selects; the returned size is the
// frontier's point count (0 under makespan planning).
func (s *Scheduler) planWindow(ctx context.Context, models []*model.Model, slo core.SLOClass) (*pipeline.Schedule, []core.BatchGroup, int, core.Account, error) {
	if s.cfg.Objective == core.ObjectiveFrontier {
		f, groups, acc, err := s.planner.PlanFrontierModels(ctx, models, s.cfg.MaxBatch)
		if err != nil {
			return nil, nil, 0, acc, err
		}
		pt := f.Select(slo)
		return pt.Plan.Schedule, core.OrderGroups(groups, pt.Plan.Order), f.Size(), acc, nil
	}
	plan, groups, acc, err := s.planner.PlanModels(ctx, models, s.cfg.MaxBatch)
	if err != nil {
		return nil, nil, 0, acc, err
	}
	return plan.Schedule, groups, 0, acc, nil
}

// windowSLO resolves the class one window serves: the strictest class among
// its member requests, folded pairwise with core.StrictestSLO, through the
// resolveSLO chain — so an all-unset window under an unset default selects
// latency-critical, whose frontier point has the makespan plan's makespan
// and is no worse on any other axis.
func (s *Scheduler) windowSLO(requests []Request, window []int) core.SLOClass {
	var slo core.SLOClass
	for _, global := range window {
		slo = core.StrictestSLO(slo, requests[global].SLO)
	}
	return s.resolveSLO(slo)
}

// intRange returns [lo, hi) as a slice (nil when empty).
func intRange(lo, hi int) []int {
	if lo >= hi {
		return nil
	}
	out := make([]int, hi-lo)
	for i := range out {
		out[i] = lo + i
	}
	return out
}

// PoissonArrivals generates a deterministic arrival sequence with
// exponential inter-arrival gaps of the given mean, using a simple LCG so
// the stream is reproducible without wall-clock or math/rand state.
func PoissonArrivals(models []*model.Model, meanGap time.Duration, seed uint64) []Request {
	out := make([]Request, len(models))
	state := seed*6364136223846793005 + 1442695040888963407
	at := time.Duration(0)
	for i, m := range models {
		state = state*6364136223846793005 + 1442695040888963407
		// Uniform in (0, 1] from the top bits.
		u := float64(state>>11)/float64(1<<53) + 1e-12
		gap := time.Duration(-float64(meanGap) * math.Log(u))
		at += gap
		out[i] = Request{Model: m, Arrival: at}
	}
	return out
}

// DeviceSeed derives a decorrelated per-device seed from a fleet-wide base
// seed via splitmix64. PoissonArrivals' LCG maps nearby seeds to nearly
// identical gap sequences (one multiply-add of the seed feeds the stream
// state), so seed+device would correlate every device's arrivals; splitmix64's
// avalanche mixing makes each device's substream independent while keeping the
// whole fleet reproducible from one base seed.
func DeviceSeed(seed uint64, device int) uint64 {
	z := seed + uint64(device+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}
