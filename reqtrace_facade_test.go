package hetero2pipe_test

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hetero2pipe"
	"hetero2pipe/internal/fleet"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/obs/server"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stream"
)

// sseOpen opens a cancellable SSE request against url.
func sseOpen(t *testing.T, url string) *http.Response {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// sseRead accumulates the SSE body until marker has appeared want times (the
// stream stays open — it only ends when the client disconnects).
func sseRead(t *testing.T, resp *http.Response, marker string, want int) string {
	t.Helper()
	buf := make([]byte, 4096)
	var acc strings.Builder
	deadline := time.After(30 * time.Second)
	for strings.Count(acc.String(), marker) < want {
		select {
		case <-deadline:
			t.Fatalf("SSE delivered %d %q events, want %d; got:\n%s",
				strings.Count(acc.String(), marker), marker, want, acc.String())
		default:
		}
		n, err := resp.Body.Read(buf)
		if n > 0 {
			acc.Write(buf[:n])
		}
		if err != nil {
			break
		}
	}
	if got := strings.Count(acc.String(), marker); got < want {
		t.Fatalf("SSE delivered %d %q events, want %d", got, marker, want)
	}
	return acc.String()
}

// TestRequestTracingFacadeEndToEnd drives WithRequestTracing/WithSLOBudget
// through the public facade: a traced stream run must populate the flight
// recorder and the SLO monitor, and the observability server must serve the
// /requests and /slo endpoints consistently with the run's labeled metrics.
func TestRequestTracingFacadeEndToEnd(t *testing.T) {
	reg := hetero2pipe.NewMetricsRegistry("h2pipe")
	sys, err := hetero2pipe.NewSystem("Kirin990",
		hetero2pipe.WithMetrics(reg),
		hetero2pipe.WithRequestTracing(0),
		hetero2pipe.WithSLOBudget(hetero2pipe.SLOLatencyCritical, 0.5),
	)
	if err != nil {
		t.Fatal(err)
	}
	if sys.RequestTraces() == nil {
		t.Fatal("WithRequestTracing armed no trace store")
	}
	if sys.SLOBudgets() == nil {
		t.Fatal("WithSLOBudget armed no monitor")
	}

	reqs := burst(t, "ResNet50", "SqueezeNet", "GoogLeNet", "MobileNetV2")
	reqs[0].Deadline = time.Nanosecond // guaranteed miss
	for i := 1; i < len(reqs); i++ {
		reqs[i].Deadline = time.Minute // guaranteed hit
	}
	res, err := sys.RunStreamContext(t.Context(), reqs, hetero2pipe.DefaultStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timelines) != len(reqs) {
		t.Fatalf("%d timelines, want %d", len(res.Timelines), len(reqs))
	}
	for i, tl := range res.Timelines {
		if !tl.Completed {
			t.Fatalf("timeline %d incomplete", i)
		}
		if got := tl.Breakdown.VirtualSum(); got != tl.Sojourn {
			t.Errorf("timeline %d decomposition %v != sojourn %v", i, got, tl.Sojourn)
		}
	}
	if res.Timelines[0].SLO != "latency-critical" || !res.Timelines[0].Missed {
		t.Errorf("timeline 0 should be a missed latency-critical request: %+v", res.Timelines[0])
	}

	srv := httptest.NewServer(sys.ObsHandler())
	defer srv.Close()

	// /requests default listing.
	code, body := httpGet(t, srv.URL+"/requests")
	if code != 200 {
		t.Fatalf("GET /requests = %d, want 200", code)
	}
	var listing struct {
		Total    int                           `json:"total"`
		Requests []hetero2pipe.RequestTimeline `json:"requests"`
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatalf("/requests not JSON: %v\n%s", err, body)
	}
	if listing.Total != len(reqs) || len(listing.Requests) != len(reqs) {
		t.Errorf("/requests total=%d len=%d, want %d", listing.Total, len(listing.Requests), len(reqs))
	}

	// /requests?trace=ID returns exactly that timeline; a bogus ID 404s.
	want := res.Timelines[0]
	code, body = httpGet(t, srv.URL+"/requests?trace="+want.Trace)
	if code != 200 {
		t.Fatalf("GET /requests?trace=%s = %d, want 200", want.Trace, code)
	}
	var one hetero2pipe.RequestTimeline
	if err := json.Unmarshal([]byte(body), &one); err != nil {
		t.Fatal(err)
	}
	if one.Trace != want.Trace || one.Model != want.Model || len(one.Events) != len(want.Events) {
		t.Errorf("/requests?trace returned a different timeline: %+v", one)
	}
	if code, _ := httpGet(t, srv.URL+"/requests?trace=00000000000000ff"); code != 404 {
		t.Errorf("GET /requests with unknown trace = %d, want 404", code)
	}

	// /requests?worst=1 surfaces the fattest sojourn.
	code, body = httpGet(t, srv.URL+"/requests?worst=1")
	if code != 200 {
		t.Fatalf("GET /requests?worst=1 = %d, want 200", code)
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Requests) != 1 {
		t.Fatalf("?worst=1 returned %d rows", len(listing.Requests))
	}
	for _, tl := range res.Timelines {
		if tl.Sojourn > listing.Requests[0].Sojourn {
			t.Errorf("?worst=1 returned sojourn %v but %s is worse (%v)",
				listing.Requests[0].Sojourn, tl.Trace, tl.Sojourn)
		}
	}
	if code, _ := httpGet(t, srv.URL+"/requests?worst=frog"); code != 400 {
		t.Errorf("GET /requests?worst=frog = %d, want 400", code)
	}

	// ?n= follows ?worst='s rule: a present count is an integer ≥ 1.
	code, body = httpGet(t, srv.URL+"/requests?n=1")
	if code != 200 {
		t.Fatalf("GET /requests?n=1 = %d, want 200", code)
	}
	if err := json.Unmarshal([]byte(body), &listing); err != nil {
		t.Fatal(err)
	}
	if len(listing.Requests) != 1 || listing.Total != len(reqs) {
		t.Errorf("?n=1 returned %d rows of %d, want 1 of %d", len(listing.Requests), listing.Total, len(reqs))
	}
	for _, bad := range []string{"frog", "0", "-1"} {
		if code, _ := httpGet(t, srv.URL+"/requests?n="+bad); code != 400 {
			t.Errorf("GET /requests?n=%s = %d, want 400", bad, code)
		}
	}

	// /slo agrees with the labeled deadline-miss counter.
	code, body = httpGet(t, srv.URL+"/slo")
	if code != 200 {
		t.Fatalf("GET /slo = %d, want 200", code)
	}
	var slo hetero2pipe.SLOReport
	if err := json.Unmarshal([]byte(body), &slo); err != nil {
		t.Fatalf("/slo not JSON: %v\n%s", err, body)
	}
	if len(slo.Classes) != 1 {
		t.Fatalf("/slo classes = %+v, want the one budgeted class", slo.Classes)
	}
	c := slo.Classes[0]
	if c.Class != "latency-critical" || c.Target != 0.5 {
		t.Errorf("/slo class row %+v, want latency-critical@0.5", c)
	}
	if c.Total != uint64(len(reqs)) || c.Missed != 1 {
		t.Errorf("/slo counts %d/%d, want 1/%d", c.Missed, c.Total, len(reqs))
	}
	missSeries := obs.SeriesName("stream_deadline_miss_total", "slo", "latency-critical")
	if got := reg.Snapshot().Counters[missSeries]; got != c.Missed {
		t.Errorf("%s = %d, /slo says %d", missSeries, got, c.Missed)
	}
	wantFrac := float64(c.Missed) / float64(c.Total)
	if c.MissFraction != wantFrac {
		t.Errorf("/slo miss fraction %v, want %v", c.MissFraction, wantFrac)
	}

	// A system without the options 404s both endpoints.
	plain, err := hetero2pipe.NewSystem("Kirin990")
	if err != nil {
		t.Fatal(err)
	}
	if plain.RequestTraces() != nil || plain.SLOBudgets() != nil {
		t.Error("plain system armed tracing state")
	}
	plainSrv := httptest.NewServer(plain.ObsHandler())
	defer plainSrv.Close()
	if code, _ := httpGet(t, plainSrv.URL+"/requests"); code != 404 {
		t.Errorf("GET /requests unarmed = %d, want 404", code)
	}
	if code, _ := httpGet(t, plainSrv.URL+"/slo"); code != 404 {
		t.Errorf("GET /slo unarmed = %d, want 404", code)
	}
}

// TestRequestTracingSSE covers /requests?sse=1: a subscriber connected
// before a run streams every completed timeline as a "request" event.
func TestRequestTracingSSE(t *testing.T) {
	sys, err := hetero2pipe.NewSystem("Kirin990", hetero2pipe.WithRequestTracing(0))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sys.ObsHandler())
	defer srv.Close()

	resp := sseOpen(t, srv.URL+"/requests?sse=1")
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}

	res, err := sys.RunStreamContext(t.Context(), burst(t, "SqueezeNet", "MobileNetV2"), hetero2pipe.DefaultStreamConfig())
	if err != nil {
		t.Fatal(err)
	}
	acc := sseRead(t, resp, "event: request\n", len(res.Timelines))
	if !strings.Contains(acc, `"trace"`) {
		t.Errorf("SSE payload is not a timeline:\n%.300s", acc)
	}
}

// TestRequestTraceFleetFailoverEndpoint pins the acceptance criterion end to
// end at the HTTP surface: after a fleet run with failover, querying
// /requests?trace=ID for a handed-off request returns its single stitched
// timeline including the pre-handoff device's phases.
func TestRequestTraceFleetFailoverEndpoint(t *testing.T) {
	reg := obs.NewRegistry("h2pipe")
	store := stream.NewTraceStore(0, 0)
	var events []soc.Event
	for _, p := range []string{"npu", "cpu-big", "gpu", "cpu-small"} {
		events = append(events, soc.Event{Kind: soc.EventProcessorOffline, Processor: p, At: 2 * time.Millisecond})
	}
	mk := func(name string, evs []soc.Event) *fleet.Device {
		dev, err := fleet.NewDevice(fleet.DeviceSpec{
			Name: name,
			SoC:  soc.Kirin990(),
			Stream: stream.Config{
				MaxWindow: 3, MaxBatch: 1, MaxRetries: 2,
				RetryBackoff:   100 * time.Microsecond,
				Events:         evs,
				RequestTracing: true,
				Traces:         store,
			},
		}, reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}
	fl, err := fleet.New([]*fleet.Device{mk("dev0", events), mk("dev1", nil)}, fleet.Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	zoo := []string{model.ResNet50, model.SqueezeNet, model.GoogLeNet, model.MobileNetV2}
	requests := make([]stream.Request, 16)
	for i := range requests {
		requests[i] = stream.Request{
			Model:   model.MustByName(zoo[i%len(zoo)]),
			Arrival: time.Duration(i) * 500 * time.Microsecond,
		}
	}
	res, err := fl.RunContext(t.Context(), requests, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Handoffs == 0 {
		t.Fatal("no handoffs; scenario broken")
	}

	srv := httptest.NewServer(server.Handler(server.Config{Traces: store}))
	defer srv.Close()

	probed := 0
	for fi, tl := range res.Timelines {
		if !tl.Handoff {
			continue
		}
		probed++
		code, body := httpGet(t, srv.URL+"/requests?trace="+tl.Trace)
		if code != 200 {
			t.Fatalf("GET /requests?trace=%s = %d, want 200", tl.Trace, code)
		}
		var got stream.RequestTimeline
		if err := json.Unmarshal([]byte(body), &got); err != nil {
			t.Fatal(err)
		}
		if got.Trace != tl.Trace || !got.Handoff || !got.Completed {
			t.Fatalf("endpoint returned a non-stitched view for %s: %+v", tl.Trace, got)
		}
		// Pre-handoff device phases are present: dev0 events precede the
		// handed_off marker.
		devices := make(map[string]bool)
		sawHandoff := false
		for _, ev := range got.Events {
			devices[ev.Device] = true
			if ev.Phase == stream.PhaseHandedOff {
				sawHandoff = true
			}
			if !sawHandoff && ev.Device != "dev0" {
				t.Errorf("request %d: pre-handoff event %s on %q, want dev0", fi, ev.Phase, ev.Device)
			}
		}
		if !sawHandoff || !devices["dev0"] || !devices["dev1"] {
			t.Errorf("request %d timeline does not span both devices (handoff=%t devices=%v)",
				fi, sawHandoff, devices)
		}
		if got.Breakdown.VirtualSum() != got.Sojourn {
			t.Errorf("request %d served timeline breaks the sum invariant", fi)
		}
	}
	if probed == 0 {
		t.Fatal("no handed-off timeline to probe")
	}
}

// TestSLOBudgetRejectsNonFiniteTarget: NewSystem refuses a NaN or infinite
// WithSLOBudget target.
func TestSLOBudgetRejectsNonFiniteTarget(t *testing.T) {
	for _, target := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if _, err := hetero2pipe.NewSystem("Kirin990",
			hetero2pipe.WithSLOBudget(hetero2pipe.SLOLatencyCritical, target)); err == nil {
			t.Errorf("WithSLOBudget target %v: nil error", target)
		}
	}
}
