// Liveobs: the observability facade end to end — a System configured with
// metrics, span tracing and structured logging serves its live HTTP
// surface while an online stream runs, then exports the recorded spans
// both as OTLP/JSON and as a Chrome trace reconstructed from the span
// ring alone. The example polls its own endpoints mid-run the way an
// operator (or Prometheus) would.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"strings"
	"time"

	"hetero2pipe"
	"hetero2pipe/internal/model"
)

func main() {
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn}))
	reg := hetero2pipe.NewMetricsRegistry("liveobs")
	rec := hetero2pipe.NewSpanRecorder(0)
	sys, err := hetero2pipe.NewSystem("Kirin990",
		hetero2pipe.WithMetrics(reg),
		hetero2pipe.WithSpans(rec),
		hetero2pipe.WithLogger(logger),
	)
	if err != nil {
		log.Fatal(err)
	}

	// Serve the observability surface on an ephemeral port for the life of
	// the example.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	addrc := make(chan net.Addr, 1)
	go func() {
		if err := sys.ServeObs(ctx, "127.0.0.1:0", func(a net.Addr) { addrc <- a }); err != nil {
			log.Fatal(err)
		}
	}()
	base := fmt.Sprintf("http://%s", <-addrc)
	fmt.Printf("observability server: %s\n\n", base)

	// A stream of mixed requests, injected with an NPU outage mid-run so
	// the trace shows an interrupted, replanned window.
	var names []string
	for i := 0; i < 6; i++ {
		names = append(names, "SqueezeNet", "ResNet50", "MobileNetV2")
	}
	requests := make([]hetero2pipe.StreamRequest, 0, len(names))
	events, err := hetero2pipe.ParseEvents("offline:npu@30ms,online:npu@60ms")
	if err != nil {
		log.Fatal(err)
	}
	at := time.Duration(0)
	for _, n := range names {
		m, err := model.ByName(n)
		if err != nil {
			log.Fatal(err)
		}
		requests = append(requests, hetero2pipe.StreamRequest{Model: m, Arrival: at})
		at += 4 * time.Millisecond
	}
	cfg := hetero2pipe.DefaultStreamConfig()
	cfg.Events = events

	// Poll the live endpoints while the run is in flight.
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		for i := 0; i < 3; i++ {
			time.Sleep(2 * time.Millisecond)
			fmt.Printf("GET /readyz  → %s", get(base+"/readyz"))
			fmt.Printf("GET /windows → %d bytes of live WindowStats\n", len(get(base+"/windows")))
		}
	}()
	res, err := sys.RunStreamContext(ctx, requests, cfg)
	if err != nil {
		log.Fatal(err)
	}
	<-pollDone

	fmt.Printf("\nrun: %d windows, %d replans, makespan %.1f ms\n",
		res.Windows, res.Replans, res.Makespan.Seconds()*1e3)
	fmt.Printf("sojourn p50/p95/p99: %.2f / %.2f / %.2f ms\n",
		res.Report.P50SojournMS, res.Report.P95SojournMS, res.Report.P99SojournMS)

	// The metrics endpoint, as Prometheus would scrape it.
	metrics := get(base + "/metrics")
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "liveobs_stream_windows_total") {
			fmt.Printf("scraped: %s\n", line)
		}
	}

	// Both trace exports come from the one span ring.
	var otlp strings.Builder
	if err := hetero2pipe.WriteOTLP(&otlp, rec, "liveobs"); err != nil {
		log.Fatal(err)
	}
	chrome, err := hetero2pipe.StreamChromeTraceFromSpans(rec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spans recorded: %d (OTLP %d bytes, Chrome trace %d bytes)\n",
		rec.Total(), otlp.Len(), len(chrome))
}

// get fetches a URL and returns the body (empty on error — the example
// keeps going so partial output still prints).
func get(url string) string {
	resp, err := http.Get(url)
	if err != nil {
		return ""
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return string(body)
}
