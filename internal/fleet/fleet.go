package fleet

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"sync"
	"time"

	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/stats"
	"hetero2pipe/internal/stream"
)

// Config tunes a fleet front-end.
type Config struct {
	// Policy shards requests across devices; nil selects consistent hashing.
	Policy Policy
	// Metrics, when set, receives fleet-level observability
	// (fleet_requests_total, fleet_handoffs_total, fleet_devices,
	// fleet_devices_down, per-device fleet_routed_total{device=...}). Pass
	// the same root registry the devices were built against so one snapshot
	// covers fleet, planners, executors and schedulers.
	Metrics *obs.Registry
	// Logger, when set, receives fleet state transitions: run start/end,
	// device halts and failover rounds.
	Logger *slog.Logger
	// Spans, when set, records a fleet_run span with one fleet_device child
	// per device run (each of which parents that device's stream_run tree).
	Spans *obs.SpanRecorder
}

// Fleet shards request streams across devices and fails halted devices'
// backlogs over to healthy peers. A Fleet runs one stream at a time
// (RunContext serialises); Status may be read concurrently at any point —
// the obs server's /fleet endpoint does.
type Fleet struct {
	devices []*Device
	policy  Policy
	metrics *obs.Registry
	logger  *slog.Logger
	spans   *obs.SpanRecorder

	mRequests *obs.Counter
	mHandoffs *obs.Counter
	gDevices  *obs.Gauge
	gDown     *obs.Gauge

	runMu sync.Mutex // serialises RunContext

	mu     sync.Mutex // guards status
	status Status
}

// New assembles a fleet over the given devices. Device names must be unique
// (unnamed devices are only valid in single-device fleets, where no label
// disambiguation is needed).
func New(devices []*Device, cfg Config) (*Fleet, error) {
	if len(devices) == 0 {
		return nil, errors.New("fleet: no devices")
	}
	seen := make(map[string]bool, len(devices))
	for i, d := range devices {
		if d == nil {
			return nil, fmt.Errorf("fleet: device %d is nil", i)
		}
		if d.Name() == "" && len(devices) > 1 {
			return nil, fmt.Errorf("fleet: device %d unnamed in a multi-device fleet", i)
		}
		if d.Name() != "" && seen[d.Name()] {
			return nil, fmt.Errorf("fleet: duplicate device name %q", d.Name())
		}
		seen[d.Name()] = true
	}
	policy := cfg.Policy
	if policy == nil {
		policy = NewHashPolicy()
	}
	f := &Fleet{
		devices:   devices,
		policy:    policy,
		metrics:   cfg.Metrics,
		logger:    cfg.Logger,
		spans:     cfg.Spans,
		mRequests: cfg.Metrics.Counter("fleet_requests_total"),
		mHandoffs: cfg.Metrics.Counter("fleet_handoffs_total"),
		gDevices:  cfg.Metrics.Gauge("fleet_devices"),
		gDown:     cfg.Metrics.Gauge("fleet_devices_down"),
	}
	f.gDevices.Set(float64(len(devices)))
	f.status = Status{Policy: policy.Name(), Devices: make([]DeviceStatus, len(devices))}
	for i, d := range devices {
		f.status.Devices[i] = DeviceStatus{Device: deviceRingName(d, i), SoC: d.SoC().Name, Live: d.Live()}
	}
	return f, nil
}

// Devices returns the fleet's device list (do not mutate).
func (f *Fleet) Devices() []*Device { return f.devices }

// Policy returns the fleet's routing policy name.
func (f *Fleet) Policy() string { return f.policy.Name() }

// Result aggregates one fleet run. Completions and Sojourns are indexed by
// the fleet-wide request index; sojourns are measured against the request's
// original arrival even when it completed on a failover device.
type Result struct {
	// Requests is the fleet-wide request count.
	Requests int
	// Assignments[d] lists the fleet request indices the router assigned to
	// device d for the primary shard (arrival order preserved).
	Assignments [][]int
	// PerDevice[d] is device d's primary-shard stream result (nil when the
	// device was assigned no requests).
	PerDevice []*stream.Result
	// HandoffResults[d] holds one stream result per failover batch replayed
	// onto device d.
	HandoffResults [][]*stream.Result
	// Completions[i] is request i's absolute completion on the shared
	// virtual clock; Sojourns[i] is completion − original arrival.
	Completions, Sojourns []time.Duration
	// Makespan is the latest completion across the fleet.
	Makespan time.Duration
	// Handoffs counts requests completed on a device other than their
	// primary assignment (Request.Handoff completions).
	Handoffs int
	// Down[d] marks devices that halted during the run (all capable
	// processors offline past the plan-retry budget).
	Down []bool
	// Timelines[i] is request i's stitched fleet-wide timeline when request
	// tracing is armed on any device: the phase events of every device the
	// request touched (pre-handoff partials included), one trace ID
	// throughout, and a sojourn decomposition — queue wait, backoff,
	// interrupt loss, exec and handoff transit — summing exactly to the
	// fleet-level sojourn against the original arrival. Nil when tracing is
	// off.
	Timelines []stream.RequestTimeline
	// Report is the merged fleet report (obs.FleetReport).
	Report *obs.FleetReport
}

// RunContext shards the arrival-ordered request stream across the fleet's
// live devices by policy and runs it in rounds on the shared virtual clock.
// Round 0 is the primary shard: every request routed once, each device's
// shard run concurrently. A device that halts (Config.HaltInfeasible — its
// plan-retry budget exhausted with every capable processor offline) leaves
// its unfinished backlog to the next round, which re-routes the halted
// devices' backlogs, taken in device order, across the remaining live
// devices with Request.Handoff set, arrivals pushed to max(original arrival,
// halt instant, target's busy horizon) and each deadline cut to what is left
// of its budget. Every round merges its results in device order. Failover
// rounds are bounded by the device count; a run whose last live device
// halts returns an error.
func (f *Fleet) RunContext(ctx context.Context, requests []stream.Request, execOpts pipeline.Options) (*Result, error) {
	f.runMu.Lock()
	defer f.runMu.Unlock()

	n := len(requests)
	for i := 1; i < n; i++ {
		if requests[i].Arrival < requests[i-1].Arrival {
			return nil, fmt.Errorf("fleet: requests not sorted by arrival at %d", i)
		}
	}
	nd := len(f.devices)
	f.policy.Reset(f.devices)

	// Request tracing is armed fleet-wide when any device traces. Trace IDs
	// are assigned here, from the fleet-wide index, before sharding — the
	// only place every request is still in one namespace — so a handed-off
	// request keeps one ID across devices and per-shard local indices can
	// never collide. The input slice is not mutated.
	tracing := false
	var traceStore *stream.TraceStore
	for _, d := range f.devices {
		c := d.StreamConfig()
		if c.RequestTracing || c.Traces != nil {
			tracing = true
			if traceStore == nil {
				traceStore = c.Traces
			}
		}
	}
	if tracing {
		traced := make([]stream.Request, n)
		copy(traced, requests)
		for i := range traced {
			if traced[i].Trace == 0 {
				traced[i].Trace = stream.NewTraceID(i)
			}
		}
		requests = traced
	}

	if f.spans != nil {
		ctx = obs.ContextWithRecorder(ctx, f.spans)
	}
	ctx, fsp := obs.StartSpan(ctx, "fleet_run",
		obs.Int("devices", int64(nd)),
		obs.Int("requests", int64(n)),
		obs.Str("policy", f.policy.Name()))
	defer fsp.End()

	down := make([]bool, nd)
	for i, d := range f.devices {
		down[i] = !d.Live()
	}
	live := liveIndices(down)
	if len(live) == 0 {
		return nil, errors.New("fleet: no live devices")
	}
	defer f.setStatus(func(s *Status) { s.Running = false })

	res := &Result{
		Requests:       n,
		PerDevice:      make([]*stream.Result, nd),
		HandoffResults: make([][]*stream.Result, nd),
		Completions:    make([]time.Duration, n),
		Sojourns:       make([]time.Duration, n),
		Down:           down,
	}
	// busy[d] is device d's virtual-clock horizon: failover work lands no
	// earlier than the device's last scheduled instant.
	busy := make([]time.Duration, nd)

	// chains[i] accumulates request i's partial timelines from halted runs,
	// in hop order; the completing segment stitches them into one fleet-wide
	// timeline.
	var chains [][]stream.RequestTimeline
	if tracing {
		chains = make([][]stream.RequestTimeline, n)
		res.Timelines = make([]stream.RequestTimeline, n)
	}

	// pending lists the fleet indices to route this round; readmit[i] is
	// request i's re-admission instant, its arrival until a halt leaves it
	// to a later round. Round 0 runs even for an empty stream, so every run
	// records its (empty) assignments.
	pending := make([]int, n)
	readmit := make([]time.Duration, n)
	for i := range requests {
		pending[i] = i
		readmit[i] = requests[i].Arrival
	}
	for round := 0; round == 0 || len(pending) > 0; round++ {
		handoff := round > 0
		if handoff {
			// Each failover round can at worst halt one more device, so the
			// device count bounds them.
			failover := round - 1
			if failover >= nd {
				return nil, fmt.Errorf("fleet: failover rounds exhausted with %d requests pending", len(pending))
			}
			live = liveIndices(down)
			if len(live) == 0 {
				return nil, fmt.Errorf("fleet: all devices down with %d requests pending", len(pending))
			}
			_, hsp := obs.StartSpan(ctx, "fleet_failover",
				obs.Int("round", int64(failover)), obs.Int("requests", int64(len(pending))))
			hsp.End()
			f.logAt(slog.LevelWarn, "failover round",
				"round", failover, "pending", len(pending), "live", len(live))
		}

		batches := make([][]int, nd)
		for _, fi := range pending {
			dev := f.policy.Route(requests[fi].Model, fi, live, f.devices)
			batches[dev] = append(batches[dev], fi)
		}
		if !handoff {
			f.startRun(res, batches, down)
		}

		// One shard per device with work, in (re-admission, index) order.
		shards := make([][]stream.Request, nd)
		for dev, batch := range batches {
			if len(batch) == 0 {
				continue
			}
			if handoff {
				for _, fi := range batch {
					readmit[fi] = max(readmit[fi], busy[dev])
				}
			}
			slices.SortFunc(batch, func(a, b int) int {
				if c := cmp.Compare(readmit[a], readmit[b]); c != 0 {
					return c
				}
				return cmp.Compare(a, b)
			})
			reqs := make([]stream.Request, len(batch))
			for local, fi := range batch {
				r := requests[fi]
				// The SLO class and trace ID travel with the request: failover
				// must not silently relax (or tighten) the objective it asked
				// for, and the handoff hop is one timeline, not two. The
				// deadline keeps only what is left of the sojourn budget, so
				// the rescue device's verdict is the fleet-level one.
				if r.Deadline > 0 {
					r.Deadline = max(r.Deadline-(readmit[fi]-r.Arrival), time.Nanosecond)
				}
				r.Arrival = readmit[fi]
				r.Handoff = r.Handoff || handoff
				reqs[local] = r
			}
			shards[dev] = reqs
		}
		results, err := f.runShards(ctx, shards, handoff, tracing, execOpts)
		if err != nil {
			return nil, err
		}

		pending = pending[:0]
		for dev, r := range results {
			if r == nil {
				continue
			}
			if handoff {
				res.HandoffResults[dev] = append(res.HandoffResults[dev], r)
			} else {
				res.PerDevice[dev] = r
			}
			idxs := batches[dev]
			if tracing {
				for local, fi := range idxs {
					tl := r.Timelines[local]
					if !tl.Completed {
						chains[fi] = append(chains[fi], tl)
						continue
					}
					res.Timelines[fi] = stitchTimeline(chains[fi], tl, fi)
					traceStore.Put(res.Timelines[fi])
				}
			}
			unfinished := make([]bool, len(idxs))
			for _, local := range r.Unfinished {
				unfinished[local] = true
			}
			done := 0
			for local, fi := range idxs {
				if unfinished[local] {
					continue
				}
				res.Completions[fi] = r.Completions[local]
				res.Sojourns[fi] = r.Completions[local] - requests[fi].Arrival
				res.Makespan = max(res.Makespan, r.Completions[local])
				done++
				// Release the routing credit: merging runs in this goroutine
				// in device order, so policy state stays deterministic.
				f.policy.Settle(requests[fi].Model, dev, f.devices)
			}
			busy[dev] = max(busy[dev], r.Makespan, r.HaltedAt)
			handoffs := 0
			if handoff {
				handoffs = r.Handoffs
				res.Handoffs += handoffs
				f.mHandoffs.Add(uint64(handoffs))
			}
			f.setStatus(func(s *Status) {
				s.Completed += done
				s.Devices[dev].Completed += done
				s.Devices[dev].HandoffsIn += handoffs
				s.Handoffs += handoffs
			})
			if !r.Halted {
				continue
			}
			down[dev] = true
			f.markDown(dev, len(r.Unfinished))
			for _, local := range r.Unfinished {
				fi := idxs[local]
				readmit[fi] = max(readmit[fi], r.HaltedAt)
				pending = append(pending, fi)
			}
			msg := "device halted"
			if handoff {
				msg = "device halted during failover"
			}
			f.logAt(slog.LevelWarn, msg,
				"device", deviceRingName(f.devices[dev], dev),
				"at", r.HaltedAt, "unfinished", len(r.Unfinished))
		}
	}

	f.gDown.Set(float64(nd - len(liveIndices(down))))
	res.Report = f.buildReport(res)
	fsp.SetAttrs(obs.Int("handoffs", int64(res.Handoffs)), obs.Dur("makespan", res.Makespan))
	f.logAt(slog.LevelInfo, "fleet run complete",
		"requests", n, "handoffs", res.Handoffs, "makespan", res.Makespan)
	return res, nil
}

// startRun records round 0's routing as the run's assignments — on the
// result, the routed counters and the live status — and logs the run start.
func (f *Fleet) startRun(res *Result, assignments [][]int, down []bool) {
	res.Assignments = assignments
	f.mRequests.Add(uint64(res.Requests))
	for dev, idxs := range assignments {
		f.metrics.WithLabels("device", deviceRingName(f.devices[dev], dev)).
			Counter("fleet_routed_total").Add(uint64(len(idxs)))
	}
	f.setStatus(func(s *Status) {
		s.Running = true
		s.Requests = res.Requests
		s.Completed = 0
		s.Handoffs = 0
		for d := range s.Devices {
			s.Devices[d].Assigned = len(assignments[d])
			s.Devices[d].Completed = 0
			s.Devices[d].HandoffsIn = 0
			s.Devices[d].HandoffsOut = 0
			s.Devices[d].Live = !down[d]
		}
	})
	f.logAt(slog.LevelInfo, "fleet run start",
		"devices", len(f.devices), "requests", res.Requests, "policy", f.policy.Name())
}

// runShards runs one round's shards concurrently — the concurrent stress on
// the shared obs store, span ring and feeds — and returns each device's
// result in its own slot (nil for a device with no shard). Each shard runs
// on its device's stream config with HaltInfeasible set and the fleet-wide
// tracing flag; devices record timelines but never publish them, since the
// fleet stores each stitched timeline once. A failover round runs on the
// SoC state as it stands: the device's own event timeline was consumed by
// its primary run. Errors report the lowest failing device.
func (f *Fleet) runShards(ctx context.Context, shards [][]stream.Request, handoff, tracing bool, execOpts pipeline.Options) ([]*stream.Result, error) {
	results := make([]*stream.Result, len(shards))
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for dev, reqs := range shards {
		if reqs == nil {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			d := f.devices[dev]
			cfg := d.StreamConfig()
			cfg.HaltInfeasible = true
			cfg.RequestTracing = tracing
			cfg.Traces = nil
			if handoff {
				cfg.Events = nil
			}
			dctx, dsp := obs.StartSpan(ctx, "fleet_device",
				obs.Str("device", deviceRingName(d, dev)),
				obs.Int("requests", int64(len(reqs))),
				obs.Bool("handoff", handoff))
			results[dev], errs[dev] = d.run(dctx, reqs, cfg, execOpts)
			dsp.End()
		}()
	}
	wg.Wait()
	for dev, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("fleet: device %s: %w", deviceRingName(f.devices[dev], dev), err)
		}
	}
	return results, nil
}

// stitchTimeline merges a request's per-device timeline segments — the
// partial timelines of every run that halted holding it, then the segment
// that completed it — into one fleet-wide timeline under the original
// arrival. Each hop contributes a handed_off event at the rescue device's
// re-admission instant and a HandoffTransit component covering the dead time
// from the source device's last covered instant (its halt, or the original
// arrival for a request its device never saw arrive) to that re-admission.
// Every segment's virtual components cover exactly its own
// [arrival, last event] span, so the stitched components telescope to
// completion − original arrival: the decomposition invariant holds fleet-wide.
// The completing device judged the deadline on what was left of the budget
// at re-admission, so its verdict (and its deadline_missed event) is the
// fleet-level one.
func stitchTimeline(chain []stream.RequestTimeline, final stream.RequestTimeline, fi int) stream.RequestTimeline {
	segs := append(append([]stream.RequestTimeline(nil), chain...), final)
	out := segs[0]
	out.Index = fi
	out.Events = append([]stream.PhaseEvent(nil), out.Events...)
	for _, seg := range segs[1:] {
		lastCovered := out.Events[len(out.Events)-1].At
		transit := seg.Arrival - lastCovered
		if transit < 0 {
			transit = 0
		}
		out.Breakdown.HandoffTransit += transit
		dev := ""
		if len(seg.Events) > 0 {
			dev = seg.Events[0].Device
		}
		out.Events = append(out.Events, stream.PhaseEvent{
			Phase: stream.PhaseHandedOff, At: seg.Arrival, Device: dev, Window: -1,
		})
		out.Events = append(out.Events, seg.Events...)
		out.Breakdown.Add(seg.Breakdown)
		out.Handoff = true
	}
	out.Completed = final.Completed
	out.Missed = final.Missed
	out.Completion = final.Completion
	out.Sojourn = final.Completion - out.Arrival
	return out
}

// markDown flips one device's live status and charges its handed-off count.
func (f *Fleet) markDown(dev, handedOff int) {
	f.setStatus(func(s *Status) {
		s.Devices[dev].Live = false
		s.Devices[dev].HandoffsOut += handedOff
	})
}

// buildReport projects a finished Result into the merged fleet report.
func (f *Fleet) buildReport(res *Result) *obs.FleetReport {
	rep := &obs.FleetReport{
		Devices:    len(f.devices),
		Policy:     f.policy.Name(),
		Requests:   res.Requests,
		Handoffs:   res.Handoffs,
		MakespanMS: float64(res.Makespan) / float64(time.Millisecond),
	}
	var sojourns []time.Duration
	st := f.Status()
	for dev, d := range f.devices {
		dr := obs.FleetDeviceReport{
			Device:      deviceRingName(d, dev),
			SoC:         d.SoC().Name,
			Down:        res.Down[dev],
			Assigned:    len(res.Assignments[dev]),
			Completed:   st.Devices[dev].Completed,
			HandoffsIn:  st.Devices[dev].HandoffsIn,
			HandoffsOut: st.Devices[dev].HandoffsOut,
		}
		if r := res.PerDevice[dev]; r != nil {
			dr.Report = r.Report
		}
		for _, r := range res.HandoffResults[dev] {
			dr.HandoffReports = append(dr.HandoffReports, r.Report)
		}
		rep.Completed += dr.Completed
		rep.PerDevice = append(rep.PerDevice, dr)
	}
	for i, s := range res.Sojourns {
		if res.Completions[i] > 0 || s > 0 {
			sojourns = append(sojourns, s)
		}
	}
	if len(sojourns) > 0 {
		var sum time.Duration
		for _, s := range sojourns {
			sum += s
		}
		rep.MeanSojournMS = float64(sum) / float64(len(sojourns)) / float64(time.Millisecond)
		sort.Slice(sojourns, func(a, b int) bool { return sojourns[a] < sojourns[b] })
		rep.P95SojournMS = float64(stats.NearestRank(sojourns, 95)) / float64(time.Millisecond)
	}
	if res.Timelines != nil {
		rep.Decomposition = stream.DecomposeTimelines(res.Timelines)
	}
	return rep
}

// Status is the fleet's live state, served by the obs server's /fleet
// endpoint.
type Status struct {
	Policy    string         `json:"policy"`
	Running   bool           `json:"running"`
	Requests  int            `json:"requests"`
	Completed int            `json:"completed"`
	Handoffs  int            `json:"handoffs"`
	Devices   []DeviceStatus `json:"devices"`
}

// DeviceStatus is one device's row of the fleet status.
type DeviceStatus struct {
	Device   string `json:"device"`
	SoC      string `json:"soc"`
	Live     bool   `json:"live"`
	Assigned int    `json:"assigned"`
	// Completed counts requests finished on this device (primary and
	// handoff); HandoffsIn counts handoff completions among them;
	// HandoffsOut counts requests this device abandoned to failover.
	Completed   int `json:"completed"`
	HandoffsIn  int `json:"handoffs_in"`
	HandoffsOut int `json:"handoffs_out"`
}

// Status returns a copy of the fleet's live state. Safe to call from any
// goroutine, including while a run is in flight.
func (f *Fleet) Status() Status {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := f.status
	out.Devices = append([]DeviceStatus(nil), f.status.Devices...)
	return out
}

func (f *Fleet) setStatus(mut func(*Status)) {
	f.mu.Lock()
	mut(&f.status)
	f.mu.Unlock()
}

func (f *Fleet) logAt(level slog.Level, msg string, args ...any) {
	if f.logger == nil {
		return
	}
	f.logger.Log(context.Background(), level, msg, args...)
}

// liveIndices lists the indices not marked down, sorted ascending.
func liveIndices(down []bool) []int {
	var out []int
	for i, d := range down {
		if !d {
			out = append(out, i)
		}
	}
	return out
}
