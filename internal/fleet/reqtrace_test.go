package fleet

import (
	"testing"
	"time"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stream"
)

// tracedDevice is testDevice with request tracing armed and a shared trace
// store wired in.
func tracedDevice(t testing.TB, name string, reg *obs.Registry, events []soc.Event, store *stream.TraceStore, mon *obs.SLOMonitor) *Device {
	t.Helper()
	dev := testDevice(t, name, reg, events)
	dev.cfg.RequestTracing = true
	dev.cfg.Traces = store
	dev.cfg.SLOMonitor = mon
	return dev
}

// TestRequestTraceFleetFailover is the acceptance-criterion test: in a fleet
// run with a mid-run device failure, every completed request has exactly one
// stitched timeline whose trace ID survived the handoff, whose decomposition
// sums to the fleet-level sojourn, and whose event history spans the failed
// device's phases before the handed_off marker. The shared trace store must
// end up holding the stitched fleet-wide view under the same trace ID.
func TestRequestTraceFleetFailover(t *testing.T) {
	reg := obs.NewRegistry("h2pipe")
	store := stream.NewTraceStore(0, 0)
	mon := obs.NewSLOMonitor(0, map[string]float64{"latency-critical": 0.5})
	dev0 := tracedDevice(t, "dev0", reg, kirinAllOffline(2*time.Millisecond), store, mon)
	dev1 := tracedDevice(t, "dev1", reg, nil, store, mon)
	fl, err := New([]*Device{dev0, dev1}, Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{model.ResNet50, model.SqueezeNet, model.GoogLeNet, model.MobileNetV2}
	requests := cycledRequests(t, names, 16, 500*time.Microsecond)
	for i := range requests {
		requests[i].Deadline = 40 * time.Millisecond
	}

	res, err := fl.RunContext(t.Context(), requests, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Handoffs == 0 {
		t.Fatal("no handoffs; failover path untested")
	}
	if len(res.Timelines) != len(requests) {
		t.Fatalf("fleet result carries %d timelines, want %d", len(res.Timelines), len(requests))
	}

	// The caller's request slice must not have been mutated by fleet-wide
	// trace assignment.
	for i := range requests {
		if requests[i].Trace != 0 {
			t.Fatalf("fleet run mutated caller request %d (trace %v)", i, requests[i].Trace)
		}
	}

	seen := make(map[string]int)
	stitched := 0
	for fi, tl := range res.Timelines {
		if !tl.Completed {
			t.Fatalf("request %d has no completed timeline", fi)
		}
		// Exactly one fleet-wide timeline per request, under the
		// deterministic fleet-index trace ID.
		if want := stream.NewTraceID(fi).String(); tl.Trace != want {
			t.Errorf("request %d trace %s, want fleet-assigned %s", fi, tl.Trace, want)
		}
		if prev, dup := seen[tl.Trace]; dup {
			t.Fatalf("trace %s appears on requests %d and %d", tl.Trace, prev, fi)
		}
		seen[tl.Trace] = fi
		if tl.Index != fi {
			t.Errorf("timeline %d carries index %d", fi, tl.Index)
		}
		if tl.Arrival != requests[fi].Arrival {
			t.Errorf("timeline %d arrival %v, want original %v", fi, tl.Arrival, requests[fi].Arrival)
		}

		// The tentpole invariant, now across devices: components sum to the
		// fleet-level sojourn.
		if got := tl.Breakdown.VirtualSum(); got != tl.Sojourn {
			t.Errorf("request %d decomposition sums to %v, sojourn %v (%+v)", fi, got, tl.Sojourn, tl.Breakdown)
		}
		if tl.Sojourn != res.Sojourns[fi] {
			t.Errorf("request %d timeline sojourn %v != fleet sojourn %v", fi, tl.Sojourn, res.Sojourns[fi])
		}
		// Deadline verdict re-derived against the original arrival.
		if want := res.Sojourns[fi] > requests[fi].Deadline; tl.Missed != want {
			t.Errorf("request %d missed=%t, want %t (sojourn %v, deadline %v)",
				fi, tl.Missed, want, res.Sojourns[fi], requests[fi].Deadline)
		}

		if !tl.Handoff {
			continue
		}
		stitched++
		// A stitched timeline spans both devices: dev0 phases strictly
		// before the handed_off marker, dev1 phases after, and positive
		// transit accounted.
		hoIdx := -1
		for j, ev := range tl.Events {
			if ev.Phase == stream.PhaseHandedOff {
				hoIdx = j
				break
			}
		}
		if hoIdx < 1 {
			t.Fatalf("stitched timeline %d has no %s event: %+v", fi, stream.PhaseHandedOff, tl.Events)
		}
		if tl.Events[hoIdx].Device != "dev1" {
			t.Errorf("handed_off event names device %q, want rescue device dev1", tl.Events[hoIdx].Device)
		}
		for _, ev := range tl.Events[:hoIdx] {
			if ev.Device != "dev0" {
				t.Errorf("pre-handoff event %s on %q, want dev0", ev.Phase, ev.Device)
			}
		}
		// The source segment closes with halted — or with just the arrival
		// event for requests that arrived after dev0's halt instant.
		last := tl.Events[hoIdx-1].Phase
		if last != stream.PhaseHalted && last != stream.PhaseArrived {
			t.Errorf("stitched timeline %d: pre-handoff segment closes with %s, want %s or %s",
				fi, last, stream.PhaseHalted, stream.PhaseArrived)
		}
		for _, ev := range tl.Events[hoIdx:] {
			if ev.Device != "dev1" {
				t.Errorf("post-handoff event %s on %q, want dev1", ev.Phase, ev.Device)
			}
		}
	}
	if stitched != res.Handoffs {
		t.Errorf("%d stitched timelines, result reports %d handoffs", stitched, res.Handoffs)
	}

	// The shared store holds the stitched fleet-wide view (not the rescue
	// device's local one) under the surviving trace ID.
	for fi, tl := range res.Timelines {
		got, ok := store.Get(tl.Trace)
		if !ok {
			t.Fatalf("trace %s missing from the store", tl.Trace)
		}
		if got.Index != fi || got.Handoff != tl.Handoff || len(got.Events) != len(tl.Events) {
			t.Errorf("store view of %s diverges: index %d/%d, handoff %t/%t, events %d/%d",
				tl.Trace, got.Index, fi, got.Handoff, tl.Handoff, len(got.Events), len(tl.Events))
		}
	}

	// The fleet report's decomposition roll-up covers every request.
	if res.Report == nil || res.Report.Decomposition == nil {
		t.Fatal("fleet report lacks the decomposition roll-up")
	}
	if res.Report.Decomposition.Requests != len(requests) {
		t.Errorf("fleet decomposition covers %d requests, want %d",
			res.Report.Decomposition.Requests, len(requests))
	}
	if res.Report.Decomposition.HandoffTransitMS < 0 {
		t.Errorf("negative fleet handoff transit: %v", res.Report.Decomposition.HandoffTransitMS)
	}

	// The shared SLO monitor saw every completion exactly once.
	var totalObserved uint64
	for _, c := range mon.Report().Classes {
		totalObserved += c.Total
	}
	if totalObserved != uint64(len(requests)) {
		t.Errorf("SLO monitor observed %d completions, want %d", totalObserved, len(requests))
	}

	// Devices record timelines and the fleet publishes each stitched one
	// once: one Put per request, none under a device-local index.
	if got := store.Total(); got != len(requests) {
		t.Errorf("trace store took %d timelines, want one per request (%d)", got, len(requests))
	}

	// One deadline verdict per request: a handed-off request carries what is
	// left of its budget, so the device results and the SLO monitor count
	// the misses the stitched timelines show.
	deviceMisses := 0
	for dev, r := range res.PerDevice {
		if r != nil {
			deviceMisses += r.DeadlineMisses
		}
		for _, h := range res.HandoffResults[dev] {
			deviceMisses += h.DeadlineMisses
		}
	}
	var monitorMisses uint64
	for _, c := range mon.Report().Classes {
		monitorMisses += c.Missed
	}
	timelineMisses := 0
	for _, tl := range res.Timelines {
		if tl.Missed {
			timelineMisses++
		}
	}
	if timelineMisses == 0 {
		t.Error("no deadline misses; verdict path untested")
	}
	if deviceMisses != timelineMisses || monitorMisses != uint64(timelineMisses) {
		t.Errorf("deadline misses disagree: devices %d, SLO monitor %d, timelines %d",
			deviceMisses, monitorMisses, timelineMisses)
	}
}

// TestRequestTracePreassignedIDs: caller-assigned trace IDs survive the
// fleet front-end untouched — only zero traces get fleet-index IDs.
func TestRequestTracePreassignedIDs(t *testing.T) {
	reg := obs.NewRegistry("h2pipe")
	store := stream.NewTraceStore(0, 0)
	dev0 := tracedDevice(t, "dev0", reg, nil, store, nil)
	dev1 := tracedDevice(t, "dev1", reg, nil, store, nil)
	fl, err := New([]*Device{dev0, dev1}, Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	requests := cycledRequests(t, []string{model.SqueezeNet, model.MobileNetV2}, 4, time.Millisecond)
	const custom = stream.TraceID(0xdeadbeefcafef00d)
	requests[2].Trace = custom

	res, err := fl.RunContext(t.Context(), requests, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Timelines[2].Trace; got != custom.String() {
		t.Errorf("pre-assigned trace overwritten: %s, want %s", got, custom.String())
	}
	if _, ok := store.Get(custom.String()); !ok {
		t.Error("pre-assigned trace not retrievable from the store")
	}
	for fi := range res.Timelines {
		if fi == 2 {
			continue
		}
		if got, want := res.Timelines[fi].Trace, stream.NewTraceID(fi).String(); got != want {
			t.Errorf("request %d trace %s, want %s", fi, got, want)
		}
	}
}
