package pipeline

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"time"

	"hetero2pipe/internal/contention"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/soc"
)

// Options configure the executor.
type Options struct {
	// Contention applies the shared-bus slowdown model to co-running
	// slices. Disabling it yields the idealised no-interference execution
	// the paper's analytic bubble objective assumes.
	Contention bool
	// EnforceMemory gates request admission on the Eq. (6) capacity
	// constraint: a request's weights and activations stay resident from
	// its first slice's start to its last slice's end.
	EnforceMemory bool
	// SampleMemory records a memory/bus-demand trace (Fig. 9).
	SampleMemory bool
	// Metrics, when set, receives execution observability at the end of
	// every successful run: executor_runs_total, executor_slices_total,
	// executor_admission_stalls_total, the executor_slowdown distribution
	// (per-slice dilation vs. the solo estimate), executor_bubble_seconds,
	// executor_makespan_seconds and the executor_peak_memory_bytes
	// high-water gauge. Leave nil for planner-internal candidate
	// evaluations so only real executions are counted.
	Metrics *obs.Registry
	// Logger, when set, receives structured records for execution-side state
	// transitions (admission stalls, at debug level). Records carry the
	// active execute span id under the "span" key when tracing is armed.
	// Leave nil for planner-internal candidate evaluations.
	Logger *slog.Logger
}

// DefaultOptions enable contention and the memory constraint.
func DefaultOptions() Options {
	return Options{Contention: true, EnforceMemory: true}
}

// SliceExec records one executed slice in the timeline.
type SliceExec struct {
	// Request and Stage identify the slice.
	Request, Stage int
	// Start and End are virtual times relative to execution start.
	Start, End time.Duration
	// Slowdown is the average dilation the slice suffered (1 = none).
	Slowdown float64
}

// MemSample is one point of the Fig. 9 trace.
type MemSample struct {
	// At is the virtual timestamp.
	At time.Duration
	// UsedBytes is resident inference memory at that instant.
	UsedBytes int64
	// DemandGBps is the instantaneous shared-bus demand.
	DemandGBps float64
}

// Result is the outcome of executing a schedule.
type Result struct {
	// Makespan is the completion time of the last request — the paper's
	// "Latency" axis in Fig. 7.
	Makespan time.Duration
	// Completions[i] is request i's finish time.
	Completions []time.Duration
	// Timeline lists every executed slice in start order.
	Timeline []SliceExec
	// BubbleTime is the measured processor idle time between each
	// processor's first and last activity, the executed counterpart of
	// Eq. (3).
	BubbleTime time.Duration
	// PeakMemoryBytes is the maximum resident memory.
	PeakMemoryBytes int64
	// AdmissionStalls counts distinct admission stall episodes: a request
	// entering the waiting-at-admission state (blocked by the Eq. (6)
	// memory constraint, directly or through in-order admission) counts
	// once per contiguous wait, not once per scheduler wake-up it sits
	// through. Because admission is monotone within a run, each request
	// contributes at most one episode.
	AdmissionStalls int
	// MemTrace holds the sampled memory/demand trace when enabled.
	MemTrace []MemSample
	// EnergyJoules is the total energy of the run: every processor's busy
	// time at its busy power plus its remaining makespan at idle power
	// (energy-model extension; see soc.Power).
	EnergyJoules float64
}

// EnergyPerInference returns joules per completed request.
func (r *Result) EnergyPerInference() float64 {
	if len(r.Completions) == 0 {
		return 0
	}
	return r.EnergyJoules / float64(len(r.Completions))
}

// Throughput returns completed inferences per second (Fig. 7's throughput
// metric, #models / latency).
func (r *Result) Throughput() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(len(r.Completions)) / r.Makespan.Seconds()
}

// execState tracks one in-flight slice.
type execState struct {
	req, stage int
	remaining  float64 // solo seconds of work left
	fp         contention.Footprint
	start      time.Duration
	soloSec    float64
}

// ExecuteContext runs the schedule on the executor's virtual clock and
// returns the measured result. The schedule must Validate.
//
// The executor implements the precedence constraints of Eq. (8): request i's
// stage k starts when stage k-1 of request i has finished AND processor k
// has finished request i-1's stage k. Under Options.Contention, every
// running slice's progress rate is 1/slowdown, recomputed whenever the
// co-running set changes, so the T^co term of Eq. (2) emerges from overlap
// rather than being a static additive guess.
//
// Cancellation is checked at every virtual-clock advance, so a run aborts
// between slice completions and returns an error wrapping ctx.Err().
//
// The simulation state lives in a pooled execScratch (see scratch.go), so a
// steady-state call allocates only the Result and the slices it returns;
// the per-step contention factors reuse one demands buffer and accumulate
// each victim's skip-self pressure sum in the original co-runner order,
// keeping every float bit-identical to the unpooled reference executor
// (pinned by the differential and fuzz suites).
func ExecuteContext(ctx context.Context, s *Schedule, opts Options) (*Result, error) {
	sc := execScratchPool.Get().(*execScratch)
	defer execScratchPool.Put(sc)
	if err := sc.ms.measure(s); err != nil {
		return nil, err
	}
	m, k := s.NumRequests(), s.NumStages()
	if m == 0 {
		return &Result{}, nil
	}

	// One span per execution, one child per completed slice. The
	// TracingEnabled guard keeps the disabled path from allocating the
	// attribute slice; every use below is nil-safe.
	var execSpan *obs.Span
	if obs.TracingEnabled(ctx) {
		ctx, execSpan = obs.StartSpan(ctx, "execute",
			obs.Int("requests", int64(m)), obs.Int("stages", int64(k)))
	}
	defer execSpan.End()

	var e execRun
	slices := e.start(ctx, s, &sc.ms, sc, opts)
	defer e.release()
	e.span = execSpan
	e.res = &Result{
		Completions: make([]time.Duration, m),
		Timeline:    make([]SliceExec, 0, slices),
	}
	if opts.SampleMemory {
		// Each clock step completes at least one slice and records at most
		// two samples (the completion pass plus a successful tryStart), and
		// the initial fill records one more — so 2·slices+1 bounds the
		// trace and the preallocation makes it append-only with no
		// amortised regrowth.
		e.res.MemTrace = make([]MemSample, 0, 2*slices+1)
	}
	if err := e.run(); err != nil {
		return nil, err
	}

	res := e.res
	res.Makespan = e.now
	res.PeakMemoryBytes = e.peakMem
	res.AdmissionStalls = e.stalls
	res.EnergyJoules = e.energy
	if execSpan != nil {
		execSpan.SetAttrs(obs.Dur("vt_makespan", e.now), obs.Int("slices", int64(len(res.Timeline))))
	}
	res.BubbleTime = measureBubbles(res.Timeline, k, e.sc)
	sort.Slice(res.Timeline, func(a, b int) bool {
		if res.Timeline[a].Start != res.Timeline[b].Start {
			return res.Timeline[a].Start < res.Timeline[b].Start
		}
		return res.Timeline[a].Stage < res.Timeline[b].Stage
	})
	publishExecMetrics(opts.Metrics, res)
	return res, nil
}

// ErrCutoff is returned by Search.Price when the run's virtual clock
// reaches the caller's cutoff, i.e. when the schedule's makespan is at
// least the cutoff.
var ErrCutoff = errors.New("pipeline: makespan reached the pricing cutoff")

// NoCutoff is the Search.Price cutoff that lets every run finish.
const NoCutoff = time.Duration(math.MaxInt64)

// Cost is the objective-only outcome of a run: the numbers a planner ranks
// candidate schedules by. Every field is bit-identical to its counterpart
// in the Result ExecuteContext returns for the same schedule and options.
type Cost struct {
	// Makespan is Result.Makespan.
	Makespan time.Duration
	// EnergyJoules is Result.EnergyJoules.
	EnergyJoules float64
	// PeakMemoryBytes is Result.PeakMemoryBytes.
	PeakMemoryBytes int64
	// Completed is len(Result.Completions), the number of requests run.
	Completed int
}

// Throughput is Result.Throughput for the priced run.
func (c Cost) Throughput() float64 {
	if c.Makespan <= 0 {
		return 0
	}
	return float64(c.Completed) / c.Makespan.Seconds()
}

// execRun is one execution's live state. Bundling it in a struct keeps the
// hot loops as methods over one value instead of a web of capturing
// closures, each of which would heap-allocate its environment per call.
// ExecuteContext and Search.Price share it: ExecuteContext sets res (and
// span, when tracing), so the Result-building steps sit behind res != nil;
// Search.Price sets cutoff.
type execRun struct {
	ctx     context.Context
	s       *Schedule
	ms      *measurement
	opts    Options
	sc      *execScratch
	span    *obs.Span
	res     *Result
	m, k    int
	busGBps float64
	memUse  int64
	now     time.Duration
	running []*execState
	still   []*execState
	nStates int // next free slot in the scratch execState slab
	// cutoff, when positive, stops the run with ErrCutoff once now reaches it.
	cutoff time.Duration
	// peakMem, stalls and energy become the Result's or Cost's
	// PeakMemoryBytes, AdmissionStalls and EnergyJoules.
	peakMem int64
	stalls  int
	energy  float64
}

// start binds the run to s and its measurement ms, sizes the scratch sc
// for it and seeds the per-request state. It returns the schedule's
// non-empty slice count, which exactly sizes the execState slab and the
// Timeline and bounds the MemTrace (each slice starts and completes exactly
// once). The caller must release the run.
func (e *execRun) start(ctx context.Context, s *Schedule, ms *measurement, sc *execScratch, opts Options) int {
	m, k := s.NumRequests(), s.NumStages()
	sc.size(m, k, ms.slices)
	*e = execRun{
		ctx: ctx, s: s, ms: ms, opts: opts, sc: sc,
		m: m, k: k,
		busGBps: s.SoC.EffectiveBusBandwidthGBps(),
		running: sc.running,
		still:   sc.still,
	}
	// Seed each request's frontier at its first non-empty stage.
	copy(sc.pendFrom, ms.first)
	return ms.slices
}

// release hands the run's buffers back to its scratch. The running/still
// buffers swap roles every step; whichever two arrays they ended up as go
// back so their capacity is retained across the pool.
func (e *execRun) release() {
	e.sc.running, e.sc.still = e.running[:0], e.still[:0]
}

// done reports whether request i has completed every non-empty stage: its
// frontier has advanced past the last stage.
func (e *execRun) done(i int) bool { return e.sc.pendFrom[i] >= e.k }

// advanceFrontier moves request i's frontier past the just-completed stage
// st to the next non-empty pending stage. Stages of one request complete in
// order (a stage starts only when every earlier non-empty stage is done),
// so st is always the current frontier.
func (e *execRun) advanceFrontier(i, st int) {
	next := st + 1
	for next < e.k && e.s.Stages[i][next].Empty() {
		next++
	}
	e.sc.pendFrom[i] = next
}

func (e *execRun) admit(i int) bool {
	sc := e.sc
	if sc.admitted[i] {
		return true
	}
	// In-order admission: all earlier requests must be admitted first.
	if i > 0 && !sc.admitted[i-1] {
		return false
	}
	if e.opts.EnforceMemory && e.memUse+e.ms.mem[i] > e.s.SoC.MemoryCapacityBytes && e.memUse > 0 {
		return false
	}
	sc.admitted[i] = true
	e.memUse += e.ms.mem[i]
	if e.memUse > e.peakMem {
		e.peakMem = e.memUse
	}
	return true
}

func (e *execRun) finishRequest(i int, at time.Duration) {
	e.sc.finishedReq[i] = true
	if e.res != nil {
		e.res.Completions[i] = at
	}
	e.memUse -= e.ms.mem[i]
}

func (e *execRun) sample() {
	if !e.opts.SampleMemory {
		return
	}
	var demand float64
	for _, r := range e.running {
		demand += r.fp.DemandGBps
	}
	e.res.MemTrace = append(e.res.MemTrace, MemSample{At: e.now, UsedBytes: e.memUse, DemandGBps: demand})
}

// tryStart launches every ready slice; returns whether any started.
func (e *execRun) tryStart() bool {
	s, sc := e.s, e.sc
	started := false
	for st := 0; st < e.k; st++ {
		for !sc.busy[st] && sc.nextReq[st] < e.m {
			i := sc.nextReq[st]
			r := s.Stages[i][st]
			if r.Empty() {
				// Empty stages take no processor time and never gate
				// dependencies (the frontier skips them).
				sc.nextReq[st]++
				continue
			}
			// Dependency check: every earlier non-empty stage of request i
			// done ⇔ the frontier has reached (or passed) st.
			if sc.pendFrom[i] < st {
				break
			}
			if !e.admit(i) {
				if !sc.stalled[i] {
					sc.stalled[i] = true
					e.stalls++
					if e.opts.Logger != nil {
						e.opts.Logger.Log(e.ctx, slog.LevelDebug, "admission stall",
							"request", i, "stage", st, "vt", e.now, "span", e.span.IDHex())
					}
				}
				break
			}
			at := i*e.k + st
			dur := e.ms.dur[at]
			if dur == soc.InfDuration {
				// Validate precludes this; guard anyway.
				break
			}
			es := &sc.states[e.nStates]
			e.nStates++
			es.req, es.stage = i, st
			es.remaining = dur.Seconds()
			es.soloSec = es.remaining
			es.fp = e.ms.fp[at]
			es.start = e.now
			e.running = append(e.running, es)
			sc.busy[st] = true
			sc.nextReq[st]++
			started = true
		}
	}
	if started {
		e.sample()
	}
	return started
}

// stepFactors fills sc.factors with each running slice's dilation for this
// clock step and returns the index and dilated time of the earliest
// completion. The demands buffer is filled once per step; each victim's
// pressure is then summed skipping itself in running order — the exact
// summation order of the original per-slice []Footprint construction, which
// is load-bearing: float addition is order-sensitive, and byte-identity
// with the unpooled reference depends on it.
func (e *execRun) stepFactors() (best int, bestDt float64) {
	sc, n := e.sc, len(e.running)
	best, bestDt = -1, math.Inf(1)
	contended := e.opts.Contention && e.busGBps > 0
	if contended {
		for idx, es := range e.running {
			sc.demands[idx] = es.fp.DemandGBps
		}
	}
	for idx, es := range e.running {
		f := 1.0
		if contended && es.fp.Sensitivity > 0 {
			var pressure float64
			for j := 0; j < n; j++ {
				if j != idx {
					pressure += sc.demands[j] / e.busGBps
				}
			}
			f = contention.SlowdownFromPressure(e.busGBps, es.fp, pressure)
		}
		sc.factors[idx] = f
		dt := es.remaining * f
		if dt < bestDt {
			bestDt = dt
			best = idx
		}
	}
	return best, bestDt
}

// run drives the virtual clock to completion: it records each slice in the
// Result when one is being built, adds every slice's busy time to its
// processor's accumulator, and rolls the accumulators up into the run's
// energy. When pricing, it stops with ErrCutoff once the clock reaches the
// cutoff.
func (e *execRun) run() error {
	s, sc := e.s, e.sc
	e.tryStart()

	for len(e.running) > 0 {
		if err := e.ctx.Err(); err != nil {
			return fmt.Errorf("pipeline: execution cancelled: %w", err)
		}
		// Earliest completion under current dilation factors.
		best, bestDt := e.stepFactors()
		if best < 0 || math.IsInf(bestDt, 1) {
			return errors.New("pipeline: executor stuck with no finishable slice")
		}
		e.now += time.Duration(bestDt * float64(time.Second))
		if e.cutoff > 0 && e.now >= e.cutoff {
			return ErrCutoff
		}
		if e.opts.Contention {
			for idx, es := range e.running {
				es.remaining -= bestDt / sc.factors[idx]
				if es.remaining < 1e-12 {
					es.remaining = 0
				}
			}
		} else {
			// Contention disabled: every factor is exactly 1, so the
			// division (x/1 == x bit-exactly) is skipped wholesale.
			for _, es := range e.running {
				es.remaining -= bestDt
				if es.remaining < 1e-12 {
					es.remaining = 0
				}
			}
		}
		// Complete every slice that reached zero (ties complete together);
		// survivors move to the still buffer, then the two swap roles.
		e.still = e.still[:0]
		for _, es := range e.running {
			if es.remaining > 0 {
				e.still = append(e.still, es)
				continue
			}
			sc.busy[es.stage] = false
			// Busy durations are integer sums, so accumulating them per
			// completion totals exactly what a pass over the Timeline would.
			sc.busyDur[es.stage] += e.now - es.start
			if e.res != nil {
				e.record(es)
			}
			e.advanceFrontier(es.req, es.stage)
			if e.done(es.req) && !sc.finishedReq[es.req] {
				e.finishRequest(es.req, e.now)
			}
		}
		e.running, e.still = e.still, e.running
		e.sample()
		e.tryStart()
	}

	// Any request not yet finished means a scheduling deadlock.
	for i := 0; i < e.m; i++ {
		if !sc.finishedReq[i] {
			return fmt.Errorf("pipeline: request %d never completed (deadlock)", i)
		}
	}
	e.energy = s.SoC.EnergyRollup(sc.busyDur, e.now)
	return nil
}

// record appends a just-completed slice to the Timeline and, when tracing
// is armed, emits its span.
func (e *execRun) record(es *execState) {
	slow := 1.0
	if es.soloSec > 0 {
		slow = (e.now - es.start).Seconds() / es.soloSec
	}
	e.res.Timeline = append(e.res.Timeline, SliceExec{
		Request: es.req, Stage: es.stage,
		Start: es.start, End: e.now, Slowdown: slow,
	})
	if e.span != nil {
		s := e.s
		lr := s.Stages[es.req][es.stage]
		sp := e.span.StartChild("slice",
			obs.Int("request", int64(es.req)),
			obs.Int("stage", int64(es.stage)),
			obs.Str("proc", s.SoC.Processors[es.stage].ID),
			obs.Str("model", s.Profiles[es.req].Model().Name),
			obs.Int("layers_from", int64(lr.From)),
			obs.Int("layers_to", int64(lr.To)),
			obs.Float("slowdown", slow),
			obs.Dur("vt_start", es.start),
			obs.Dur("vt_end", e.now))
		sp.End()
	}
}

// publishExecMetrics folds one successful run into the registry. The nil
// check keeps planner-internal candidate evaluations (which run the executor
// thousands of times with no registry) entirely free of metric writes.
func publishExecMetrics(reg *obs.Registry, res *Result) {
	if reg == nil {
		return
	}
	reg.Counter("executor_runs_total").Inc()
	reg.Counter("executor_slices_total").Add(uint64(len(res.Timeline)))
	reg.Counter("executor_admission_stalls_total").Add(uint64(res.AdmissionStalls))
	slow := reg.Histogram("executor_slowdown", obs.SlowdownBuckets())
	for _, e := range res.Timeline {
		slow.Observe(e.Slowdown)
	}
	reg.Histogram("executor_bubble_seconds", obs.LatencyBuckets()).ObserveDuration(res.BubbleTime)
	reg.Histogram("executor_makespan_seconds", obs.LatencyBuckets()).ObserveDuration(res.Makespan)
	reg.Gauge("executor_peak_memory_bytes").Max(float64(res.PeakMemoryBytes))
}

// measureBubbles sums each busy processor's idle gaps between its first and
// last activity — the executed realisation of the Eq. (3) bubbles. It runs
// in one pass over the pre-sort timeline: each processor executes serially,
// so its slices appear in start order already and a per-stage cursor finds
// every gap without materialising (or sorting) per-stage span lists. The
// duration sums are integer arithmetic, so the total is identical to the
// sort-based reference accounting.
func measureBubbles(timeline []SliceExec, stages int, sc *execScratch) time.Duration {
	lastEnd, started := sc.lastEnd, sc.started
	for st := 0; st < stages; st++ {
		lastEnd[st] = 0
		started[st] = false
	}
	var total time.Duration
	for _, e := range timeline {
		if started[e.Stage] && e.Start > lastEnd[e.Stage] {
			total += e.Start - lastEnd[e.Stage]
		}
		started[e.Stage] = true
		if e.End > lastEnd[e.Stage] {
			lastEnd[e.Stage] = e.End
		}
	}
	return total
}
