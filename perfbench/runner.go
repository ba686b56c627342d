package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"hetero2pipe"
	"hetero2pipe/internal/core"
	"hetero2pipe/internal/fleet"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stream"
)

const (
	// planCacheSize bounds every device's whole-plan cache.
	planCacheSize = 256
	// spanCapacity sizes the traced run's span ring. A traced run whose
	// spans outnumber it fails its checks instead of losing spans.
	spanCapacity = 1 << 19
	// rootSpan names the benchmark's own span around each public run call.
	rootSpan = "bench_run"
	// warmRequests is the prefix of a scenario replayed to warm caches.
	warmRequests = 1000
)

// probe is what a traced run arms: the program's span recorder, request
// tracing and metrics registry. Timed runs arm none of them.
type probe struct {
	spans *obs.SpanRecorder
	reg   *obs.Registry
}

func newProbe() *probe {
	return &probe{spans: obs.NewSpanRecorder(spanCapacity), reg: obs.NewRegistry("perfbench")}
}

// instance is one freshly built system serving one scenario. Every run gets
// its own instance, so each starts from the presets' initial SoC state.
type instance struct {
	sc    scenario
	sys   *hetero2pipe.System // single-device scenarios, through the facade
	fl    *fleet.Fleet        // fleet scenarios
	probe *probe              // nil for untraced runs
}

func newInstance(sc scenario, parallelism int, pr *probe) (*instance, error) {
	in := &instance{sc: sc, probe: pr}
	var spans *obs.SpanRecorder
	var reg *obs.Registry
	if pr != nil {
		spans, reg = pr.spans, pr.reg
	}
	if !sc.fleet {
		opts := []hetero2pipe.Option{
			hetero2pipe.WithPlanCache(planCacheSize),
			hetero2pipe.WithParallelism(parallelism),
			hetero2pipe.WithDegradationEvents(sc.devices[0].events...),
		}
		if pr != nil {
			opts = append(opts, hetero2pipe.WithSpans(spans), hetero2pipe.WithMetrics(reg),
				hetero2pipe.WithRequestTracing(len(sc.requests)))
		}
		sys, err := hetero2pipe.NewSystem(sc.devices[0].preset, opts...)
		if err != nil {
			return nil, err
		}
		in.sys = sys
		return in, nil
	}
	popts := core.DefaultOptions()
	popts.PlanCache = planCacheSize
	popts.Parallelism = parallelism
	var traces *stream.TraceStore
	if pr != nil {
		traces = stream.NewTraceStore(len(sc.requests), 0)
	}
	devs := make([]*fleet.Device, len(sc.devices))
	for i, d := range sc.devices {
		s := soc.PresetByName(d.preset)
		if s == nil {
			return nil, fmt.Errorf("unknown SoC preset %q", d.preset)
		}
		cfg := stream.DefaultConfig()
		cfg.Events = d.events
		cfg.RequestTracing = pr != nil
		cfg.Traces = traces
		dev, err := fleet.NewDevice(fleet.DeviceSpec{
			Name: fmt.Sprintf("dev%d", i), SoC: s, Planner: popts, Stream: cfg,
		}, reg, nil)
		if err != nil {
			return nil, err
		}
		devs[i] = dev
	}
	fl, err := fleet.New(devs, fleet.Config{Policy: fleet.NewHashPolicy(), Metrics: reg, Spans: spans})
	if err != nil {
		return nil, err
	}
	in.fl = fl
	return in, nil
}

func (in *instance) devices() []*fleet.Device {
	if in.fl != nil {
		return in.fl.Devices()
	}
	return []*fleet.Device{in.sys.Device()}
}

// warm replays the first warmRequests requests on every device with its
// degradation events withheld, so cost tables and recurring plans are
// cached before the timed run. It leaves every SoC as built and, by calling
// the devices without the facade's span context, records no spans.
func (in *instance) warm() error {
	prefix := in.sc.requests[:min(warmRequests, len(in.sc.requests))]
	for _, d := range in.devices() {
		cfg := stream.Config{Events: []soc.Event{}}
		if _, err := d.Run(context.Background(), prefix, cfg, pipeline.DefaultOptions()); err != nil {
			return fmt.Errorf("warm-up on %s: %w", d.SoC().Name, err)
		}
	}
	return nil
}

// outcome is one run, normalised across the facade and fleet paths.
type outcome struct {
	arrivals []time.Duration
	sojourns []time.Duration // completion − original arrival; 0 when not done
	done     []bool
	makespan time.Duration
	// runs lists every device-level stream run (fleet primaries in device
	// order, then failover batches); runDevice[i] is the device of runs[i].
	runs      []*stream.Result
	runDevice []int
	single    *stream.Result // facade runs
	fleet     *fleet.Result  // fleet runs
	timelines []stream.RequestTimeline

	wall       time.Duration
	allocBytes uint64
	gcCycles   uint32
	gcPause    time.Duration
	rootID     uint64 // the benchmark's span around the call (traced runs)
}

func (o *outcome) sent() int { return len(o.arrivals) }

func (o *outcome) completed() int {
	n := 0
	for _, d := range o.done {
		if d {
			n++
		}
	}
	return n
}

// run makes the one public run call the instance exists for, timing it and
// the allocations and collections it causes.
func (in *instance) run() (*outcome, error) {
	reqs := in.sc.requests
	o := &outcome{arrivals: make([]time.Duration, len(reqs))}
	for i, r := range reqs {
		o.arrivals[i] = r.Arrival
	}
	ctx := context.Background()
	var root *obs.Span
	if in.probe != nil {
		ctx, root = obs.StartSpan(obs.ContextWithRecorder(ctx, in.probe.spans), rootSpan)
		o.rootID = root.ID()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	var err error
	if in.fl == nil {
		o.single, err = in.sys.RunStreamContext(ctx, reqs, hetero2pipe.StreamConfig{})
	} else {
		o.fleet, err = in.fl.RunContext(ctx, reqs, pipeline.DefaultOptions())
	}
	o.wall = time.Since(start)
	root.End()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, err
	}
	o.allocBytes = after.TotalAlloc - before.TotalAlloc
	o.gcCycles = after.NumGC - before.NumGC
	o.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)

	o.done = make([]bool, len(reqs))
	if r := o.single; r != nil {
		o.sojourns = r.Sojourns
		o.makespan = r.Makespan
		o.runs, o.runDevice = []*stream.Result{r}, []int{0}
		o.timelines = r.Timelines
		for i := range o.done {
			o.done[i] = true
		}
		for _, i := range r.Unfinished {
			if i >= 0 && i < len(o.done) {
				o.done[i] = false
			}
		}
		return o, nil
	}
	r := o.fleet
	o.sojourns = r.Sojourns
	o.makespan = r.Makespan
	o.timelines = r.Timelines
	for i, c := range r.Completions {
		o.done[i] = c > 0
	}
	for d, pr := range r.PerDevice {
		if pr != nil {
			o.runs = append(o.runs, pr)
			o.runDevice = append(o.runDevice, d)
		}
	}
	for d, hs := range r.HandoffResults {
		for _, hr := range hs {
			o.runs = append(o.runs, hr)
			o.runDevice = append(o.runDevice, d)
		}
	}
	return o, nil
}

// windows lists every planning window of the run across its devices.
func (o *outcome) windows() []stream.WindowStat {
	var out []stream.WindowStat
	for _, r := range o.runs {
		out = append(out, r.WindowStats...)
	}
	return out
}
