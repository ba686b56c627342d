package hetero2pipe_test

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"hetero2pipe"
)

// gateHandler is a slog.Handler that blocks the scheduler on its first
// "window complete" record: it signals entered and waits for release. The
// stream scheduler publishes each window to the feed *before* emitting the
// record, so while the handler blocks, the run is provably mid-flight with
// at least one window live on the feed — the deterministic hook the e2e
// test uses to probe the HTTP endpoints mid-run without timing sleeps.
type gateHandler struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (h *gateHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *gateHandler) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "window complete" {
		h.once.Do(func() {
			close(h.entered)
			<-h.release
		})
	}
	return nil
}
func (h *gateHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h *gateHandler) WithGroup(string) slog.Handler      { return h }

func httpGet(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

// TestServeObsEndToEnd is the acceptance-criterion e2e test: a stream run
// under WithMetrics/WithSpans/WithLogger is frozen mid-run (via the gate
// handler) and every observability endpoint is probed live, then again
// after completion.
func TestServeObsEndToEnd(t *testing.T) {
	gate := &gateHandler{entered: make(chan struct{}), release: make(chan struct{})}
	reg := hetero2pipe.NewMetricsRegistry("servetest")
	rec := hetero2pipe.NewSpanRecorder(0)
	sys, err := hetero2pipe.NewSystem("Kirin990",
		hetero2pipe.WithMetrics(reg),
		hetero2pipe.WithSpans(rec),
		hetero2pipe.WithLogger(slog.New(gate)),
	)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sys.ObsHandler())
	defer srv.Close()

	// Before any run: alive but not ready.
	if code, _ := httpGet(t, srv.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz pre-run: %d, want 200", code)
	}
	if code, _ := httpGet(t, srv.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz pre-run: %d, want 503", code)
	}

	// One request per window so the run spans several windows.
	cfg := hetero2pipe.DefaultStreamConfig()
	cfg.MaxWindow = 1
	reqs := burst(t, "SqueezeNet", "MobileNetV2", "SqueezeNet")
	runErr := make(chan error, 1)
	var res *hetero2pipe.StreamResult
	go func() {
		var err error
		res, err = sys.RunStreamContext(t.Context(), reqs, cfg)
		runErr <- err
	}()

	// The scheduler is now frozen inside its first window-complete record,
	// with that window already published to the feed.
	select {
	case <-gate.entered:
	case <-time.After(30 * time.Second):
		t.Fatal("scheduler never reached its first window-complete record")
	}

	if code, _ := httpGet(t, srv.URL+"/healthz"); code != http.StatusOK {
		t.Errorf("/healthz mid-run: %d, want 200", code)
	}
	if code, body := httpGet(t, srv.URL+"/readyz"); code != http.StatusOK {
		t.Errorf("/readyz mid-run: %d (%s), want 200", code, body)
	}
	if code, body := httpGet(t, srv.URL+"/metrics"); code != http.StatusOK {
		t.Errorf("/metrics mid-run: %d, want 200", code)
	} else if !strings.Contains(body, "servetest_stream_windows_total") {
		t.Errorf("/metrics mid-run lacks the stream_windows series:\n%.500s", body)
	}
	code, body := httpGet(t, srv.URL+"/windows")
	if code != http.StatusOK {
		t.Fatalf("/windows mid-run: %d, want 200", code)
	}
	var payload struct {
		Ready   bool `json:"ready"`
		Total   int  `json:"total"`
		Sojourn *struct {
			P50MS float64 `json:"p50_ms"`
			P99MS float64 `json:"p99_ms"`
		} `json:"sojourn_quantiles"`
		Windows []struct {
			Requests  int `json:"Requests"`
			Completed int `json:"Completed"`
		} `json:"windows"`
	}
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatalf("/windows mid-run: bad JSON: %v\n%s", err, body)
	}
	if !payload.Ready {
		t.Error("/windows mid-run: ready=false, want true")
	}
	if payload.Total < 1 || len(payload.Windows) < 1 {
		t.Errorf("/windows mid-run: total=%d windows=%d, want ≥1 live window",
			payload.Total, len(payload.Windows))
	}
	// One window has completed, so the sojourn histogram is populated and
	// the payload surfaces interpolated latency quantiles.
	if payload.Sojourn == nil {
		t.Error("/windows mid-run lacks sojourn_quantiles with metrics attached")
	} else if payload.Sojourn.P50MS <= 0 || payload.Sojourn.P99MS < payload.Sojourn.P50MS {
		t.Errorf("/windows mid-run sojourn quantiles implausible: %+v", payload.Sojourn)
	}
	if code, _ := httpGet(t, srv.URL+"/debug/pprof/"); code != http.StatusOK {
		t.Errorf("/debug/pprof/ mid-run: %d, want 200", code)
	}
	if code, _ := httpGet(t, srv.URL+"/vars"); code != http.StatusOK {
		t.Errorf("/vars mid-run: %d, want 200", code)
	}
	if code, body := httpGet(t, srv.URL+"/spans"); code != http.StatusOK {
		t.Errorf("/spans mid-run: %d, want 200", code)
	} else if !strings.Contains(body, "resourceSpans") {
		t.Errorf("/spans mid-run: not OTLP-shaped:\n%.300s", body)
	}

	close(gate.release)
	if err := <-runErr; err != nil {
		t.Fatal(err)
	}

	// After the run: still alive, no longer ready, all windows on the feed.
	if code, _ := httpGet(t, srv.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Errorf("/readyz post-run: %d, want 503", code)
	}
	_, body = httpGet(t, srv.URL+"/windows")
	if err := json.Unmarshal([]byte(body), &payload); err != nil {
		t.Fatal(err)
	}
	if payload.Total != res.Windows {
		t.Errorf("/windows post-run total %d != result windows %d", payload.Total, res.Windows)
	}
}

// TestServeObsSSE covers the ?sse=1 variant: a subscriber connected before
// the run streams every window as a Server-Sent Event.
func TestServeObsSSE(t *testing.T) {
	reg := hetero2pipe.NewMetricsRegistry("ssetest")
	sys, err := hetero2pipe.NewSystem("Kirin990", hetero2pipe.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(sys.ObsHandler())
	defer srv.Close()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, srv.URL+"/windows?sse=1", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}

	cfg := hetero2pipe.DefaultStreamConfig()
	cfg.MaxWindow = 1
	res, err := sys.RunStreamContext(ctx, burst(t, "SqueezeNet", "MobileNetV2"), cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Read until every window of the finished run has arrived (the response
	// stays open — the stream only ends when the client disconnects).
	events := 0
	buf := make([]byte, 4096)
	var acc strings.Builder
	deadline := time.After(30 * time.Second)
	for events < res.Windows {
		select {
		case <-deadline:
			t.Fatalf("SSE delivered %d events, want %d; got:\n%s", events, res.Windows, acc.String())
		default:
		}
		n, err := resp.Body.Read(buf)
		if n > 0 {
			acc.Write(buf[:n])
			events = strings.Count(acc.String(), "event: window\n")
		}
		if err != nil {
			break
		}
	}
	if events < res.Windows {
		t.Fatalf("SSE delivered %d events, want %d", events, res.Windows)
	}
	if !strings.Contains(acc.String(), "\"Requests\":") {
		t.Errorf("SSE data payload is not a WindowStat:\n%.300s", acc.String())
	}
}
