// Package server exposes the runtime's observability surfaces over HTTP:
// Prometheus metrics, expvar, pprof, health/readiness probes, the live
// window feed of an in-flight stream run (plain JSON or Server-Sent
// Events), and the span ring as OTLP/JSON. The package composes the
// read-side primitives the rest of internal/obs and internal/stream
// provide; it owns no state of its own, so one handler can outlive any
// number of runs.
package server

import (
	"context"
	"encoding/json"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"hetero2pipe/internal/fleet"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/stream"
)

// Config wires the observability sources into the handler. Every field is
// optional: endpoints whose source is nil respond 404 (probes always
// respond).
type Config struct {
	// Metrics backs /metrics (Prometheus text format).
	Metrics *obs.Registry
	// Spans backs /spans (OTLP/JSON).
	Spans *obs.SpanRecorder
	// Feed backs /windows (ring snapshot or SSE) and /readyz (ready while a
	// stream run is accepting admissions).
	Feed *stream.Feed
	// Fleet backs /fleet (live sharded-serving status: per-device
	// assignment, completion and handoff counts).
	Fleet *fleet.Fleet
	// Traces backs /requests (per-request timeline flight recorder: recent,
	// ?trace=ID lookup, ?worst=N, SSE with ?sse=1).
	Traces *stream.TraceStore
	// SLO backs /slo (per-class error budgets and burn rates).
	SLO *obs.SLOMonitor
	// Service names the OTLP resource; empty defaults to "hetero2pipe".
	Service string
}

// Handler returns the observability mux:
//
//	/metrics        Prometheus text exposition of Config.Metrics
//	/vars           expvar JSON (everything published in the process)
//	/debug/pprof/   the standard pprof index and profiles
//	/healthz        200 once the process serves (liveness)
//	/readyz         200 while a stream run accepts admissions, else 503
//	/windows        live WindowStats: JSON array, or SSE with ?sse=1
//	/spans          the span ring as OTLP/JSON
//	/fleet          live fleet status (Config.Fleet)
//	/requests       request timelines: recent (default, ?n=), one by
//	                ?trace=ID, worst sojourns by ?worst=N, or SSE with ?sse=1
//	/slo            per-class error budgets and burn rates (Config.SLO)
func Handler(cfg Config) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if cfg.Feed.Ready() {
			fmt.Fprintln(w, "ready")
			return
		}
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "no stream run accepting admissions")
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Metrics == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = obs.WritePrometheus(w, cfg.Metrics)
	})
	mux.Handle("/vars", expvar.Handler())
	mux.HandleFunc("/windows", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Feed == nil {
			http.NotFound(w, r)
			return
		}
		if r.URL.Query().Get("sse") != "" {
			serveSSE(w, r, "window", cfg.Feed.Subscribe, cfg.Feed.Live)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(windowsPayload{
			Ready:   cfg.Feed.Ready(),
			Total:   cfg.Feed.Total(),
			Sojourn: sojournQuantiles(cfg.Metrics),
			Windows: cfg.Feed.Live(),
		})
	})
	mux.HandleFunc("/spans", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Spans == nil {
			http.NotFound(w, r)
			return
		}
		service := cfg.Service
		if service == "" {
			service = "hetero2pipe"
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = obs.WriteOTLP(w, cfg.Spans, service)
	})
	mux.HandleFunc("/fleet", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Fleet == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(cfg.Fleet.Status())
	})
	mux.HandleFunc("/requests", func(w http.ResponseWriter, r *http.Request) {
		if cfg.Traces == nil {
			http.NotFound(w, r)
			return
		}
		q := r.URL.Query()
		if q.Get("sse") != "" {
			serveSSE(w, r, "request", cfg.Traces.Subscribe,
				func() []stream.RequestTimeline { return cfg.Traces.Recent(0) })
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if trace := q.Get("trace"); trace != "" {
			tl, ok := cfg.Traces.Get(trace)
			if !ok {
				w.WriteHeader(http.StatusNotFound)
				_ = enc.Encode(map[string]string{"error": "trace not found", "trace": trace})
				return
			}
			_ = enc.Encode(tl)
			return
		}
		if worst := q.Get("worst"); worst != "" {
			n, err := strconv.Atoi(worst)
			if err != nil || n < 1 {
				http.Error(w, "bad worst count", http.StatusBadRequest)
				return
			}
			_ = enc.Encode(requestsPayload{
				Total:    cfg.Traces.Total(),
				Requests: cfg.Traces.Worst(n),
			})
			return
		}
		n := 0
		if v := q.Get("n"); v != "" {
			if parsed, err := strconv.Atoi(v); err == nil {
				n = parsed
			}
		}
		_ = enc.Encode(requestsPayload{
			Total:    cfg.Traces.Total(),
			Requests: cfg.Traces.Recent(n),
		})
	})
	mux.HandleFunc("/slo", func(w http.ResponseWriter, r *http.Request) {
		if cfg.SLO == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(cfg.SLO.Report())
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// windowsPayload is the /windows JSON document.
type windowsPayload struct {
	Ready   bool                `json:"ready"`
	Total   int                 `json:"total"`
	Sojourn *sojournPayload     `json:"sojourn_quantiles,omitempty"`
	Windows []stream.WindowStat `json:"windows"`
}

// sojournPayload carries interpolated latency quantiles of the sojourn
// histogram, in milliseconds.
type sojournPayload struct {
	P50MS float64 `json:"p50_ms"`
	P95MS float64 `json:"p95_ms"`
	P99MS float64 `json:"p99_ms"`
}

// sojournQuantiles estimates p50/p95/p99 from the stream scheduler's
// sojourn histogram (bucket interpolation — see obs.HistogramSnapshot
// Quantile). Nil when no registry is attached or nothing has completed yet.
func sojournQuantiles(reg *obs.Registry) *sojournPayload {
	if reg == nil {
		return nil
	}
	h, ok := reg.Snapshot().Histograms["stream_sojourn_seconds"]
	if !ok || h.Count == 0 {
		return nil
	}
	qs := h.Quantiles(0.50, 0.95, 0.99)
	return &sojournPayload{P50MS: qs[0] * 1e3, P95MS: qs[1] * 1e3, P99MS: qs[2] * 1e3}
}

// requestsPayload is the /requests JSON document.
type requestsPayload struct {
	// Total counts every timeline ever recorded (including evicted ones);
	// Requests is the selected slice.
	Total    int                      `json:"total"`
	Requests []stream.RequestTimeline `json:"requests"`
}

// serveSSE streams records as Server-Sent Events named event, data = the
// record as JSON: first the retained history (so a late subscriber sees
// it), then every record published while the client stays connected.
// Subscribing before the replay loses nothing published in between; a
// record both replayed and received is harmless for monitoring, where
// windows are idempotent by their Start and timelines by trace ID.
func serveSSE[T any](w http.ResponseWriter, r *http.Request, event string,
	subscribe func(buffer int) (<-chan T, func()), history func() []T) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusNotImplemented)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")

	write := func(v T) error {
		data, err := json.Marshal(v)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
		return err
	}
	// 64 events absorb a burst between flushes to a slow client; past that
	// the publisher drops rather than blocks.
	ch, cancel := subscribe(64)
	defer cancel()
	for _, v := range history() {
		if write(v) != nil {
			return
		}
	}
	flusher.Flush()
	for {
		select {
		case <-r.Context().Done():
			return
		case v, ok := <-ch:
			if !ok || write(v) != nil {
				return
			}
			flusher.Flush()
		}
	}
}

// Serve runs the observability server on addr until ctx is cancelled, then
// shuts it down gracefully. It returns once the server has stopped; a nil
// error means the shutdown was clean. The bound address (useful with
// ":0") is reported through the optional onListen callback.
func Serve(ctx context.Context, addr string, cfg Config, onListen func(net.Addr)) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("obs server: %w", err)
	}
	if onListen != nil {
		onListen(ln.Addr())
	}
	srv := &http.Server{Handler: Handler(cfg)}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutCtx); err != nil {
			return fmt.Errorf("obs server shutdown: %w", err)
		}
		<-errc // http.ErrServerClosed
		return nil
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			return fmt.Errorf("obs server: %w", err)
		}
		return nil
	}
}
