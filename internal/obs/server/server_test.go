package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stream"
)

// tracedRun fills a registry, a window feed and a trace store with one short
// traced stream run on Kirin 990 and returns them as a handler Config, with
// the trace ID of one stored timeline.
func tracedRun(tb testing.TB) (Config, string) {
	tb.Helper()
	reg := obs.NewRegistry("h2p")
	pl, err := core.NewPlanner(soc.Kirin990(), core.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	cfg := stream.DefaultConfig()
	cfg.MaxWindow = 3
	cfg.Metrics = reg
	cfg.Feed = stream.NewFeed(0)
	cfg.Traces = stream.NewTraceStore(0, 0)
	sched, err := stream.NewScheduler(pl, cfg)
	if err != nil {
		tb.Fatal(err)
	}
	names := []string{model.ResNet50, model.SqueezeNet, model.MobileNetV2, model.GoogLeNet, model.SqueezeNet, model.VGG16}
	requests := make([]stream.Request, len(names))
	for i, name := range names {
		requests[i] = stream.Request{Model: model.MustByName(name), Arrival: time.Duration(i) * 2 * time.Millisecond}
	}
	if _, err := sched.RunContext(context.Background(), requests, pipeline.DefaultOptions()); err != nil {
		tb.Fatal(err)
	}
	recent := cfg.Traces.Recent(1)
	if len(recent) != 1 || cfg.Feed.Total() == 0 {
		tb.Fatalf("the run stored %d timelines and fed %d windows", cfg.Traces.Total(), cfg.Feed.Total())
	}
	return Config{Metrics: reg, Feed: cfg.Feed, Traces: cfg.Traces}, recent[0].Trace
}

// FuzzServeQuery drives /requests and /windows with arbitrary raw queries.
// No query may panic the handler or draw a status other than 200, 400 or
// 404; a 400 comes exactly when the handler's precedence (sse, then trace,
// then worst, then n) reaches a count countParam rejects, and a 404 exactly
// for an unknown trace. Every 200 body decodes into its documented payload,
// an SSE body event by event. The request's context is cancelled up front,
// so an SSE request replays its history and returns.
func FuzzServeQuery(f *testing.F) {
	cfg, stored := tracedRun(f)
	h := Handler(cfg)
	for _, q := range []string{"n=0", "n=-1", "n=abc", "n=99999999999999999999", "worst=2",
		"trace=" + stored, "trace=ffffffffffffffff", "sse=1", "n=%zz"} {
		f.Add(false, q)
		f.Add(true, q)
	}
	f.Fuzz(func(t *testing.T, windows bool, query string) {
		path := "/requests"
		if windows {
			path = "/windows"
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		req := httptest.NewRequest(http.MethodGet, path, nil).WithContext(ctx)
		req.URL.RawQuery = query
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		q := req.URL.Query()
		sse := q.Get("sse") != ""
		want := http.StatusOK
		if !windows && !sse {
			if trace := q.Get("trace"); trace != "" {
				if _, ok := cfg.Traces.Get(trace); !ok {
					want = http.StatusNotFound
				}
			} else if worst, ok := countParam(q, "worst"); !ok {
				want = http.StatusBadRequest
			} else if _, ok := countParam(q, "n"); worst == 0 && !ok {
				want = http.StatusBadRequest
			}
		}
		if rec.Code != want {
			t.Fatalf("%s?%s: status %d, want %d (body %q)", path, query, rec.Code, want, rec.Body.String())
		}
		if want != http.StatusOK {
			return
		}
		switch {
		case sse && windows:
			decodeEvents[stream.WindowStat](t, rec.Body.Bytes(), cfg.Feed.Total())
		case sse:
			decodeEvents[stream.RequestTimeline](t, rec.Body.Bytes(), cfg.Traces.Total())
		case windows:
			decodeStrict[windowsPayload](t, rec.Body.Bytes())
		case q.Get("trace") != "":
			decodeStrict[stream.RequestTimeline](t, rec.Body.Bytes())
		default:
			if p := decodeStrict[requestsPayload](t, rec.Body.Bytes()); p.Total != cfg.Traces.Total() {
				t.Fatalf("%s?%s: total %d, want %d", path, query, p.Total, cfg.Traces.Total())
			}
		}
	})
}

// decodeStrict decodes body into a T, rejecting unknown fields and trailing
// data.
func decodeStrict[T any](t *testing.T, body []byte) T {
	t.Helper()
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var v T
	if err := dec.Decode(&v); err != nil {
		t.Fatalf("body does not decode into %T: %v\n%s", v, err, body)
	}
	if dec.More() {
		t.Fatalf("body holds more than one %T:\n%s", v, body)
	}
	return v
}

// decodeEvents checks an SSE body: data lines that each decode into a T,
// no more of them than the source ever held.
func decodeEvents[T any](t *testing.T, body []byte, max int) {
	t.Helper()
	n := 0
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		data, ok := strings.CutPrefix(sc.Text(), "data: ")
		if !ok {
			continue
		}
		decodeStrict[T](t, []byte(data))
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n == 0 || n > max {
		t.Fatalf("SSE replayed %d events, want 1..%d", n, max)
	}
}
