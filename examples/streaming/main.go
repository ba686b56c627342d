// Streaming: the online deployment mode — inference requests arrive over
// time (Poisson arrivals), the planner runs once per planning window
// (Sec. V's closing remark on planning frequency), and lightweight frames
// are batched inside each window (Appendix D). The example sweeps the
// window size to show the freedom/latency trade-off and compares against
// FIFO serial CPU processing of the same stream.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stream"
	"hetero2pipe/internal/workload"
)

func main() {
	platform := soc.Kirin990()
	// A bursty mixed stream: 24 requests with ~15 ms mean inter-arrival.
	gen, err := workload.NewGenerator(99, 1, 1)
	if err != nil {
		log.Fatal(err)
	}
	var names []string
	for _, combo := range gen.Combos(24) {
		names = append(names, combo...)
	}
	models, err := workload.Instantiate(names)
	if err != nil {
		log.Fatal(err)
	}
	requests := stream.PoissonArrivals(models, 15*time.Millisecond, 7)

	planner, err := core.NewPlanner(platform, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("window  windows  mean sojourn   p95 sojourn")
	for _, window := range []int{1, 2, 4, 8} {
		cfg := stream.DefaultConfig()
		cfg.MaxWindow = window
		sched, err := stream.NewScheduler(planner, cfg)
		if err != nil {
			log.Fatal(err)
		}
		res, err := sched.RunContext(context.Background(), requests, pipeline.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%6d %8d %11.1fms %11.1fms\n",
			window, res.Windows,
			res.MeanSojourn().Seconds()*1e3, res.P95Sojourn().Seconds()*1e3)
	}

	// FIFO serial CPU reference.
	big := platform.Processor("cpu-big")
	now := time.Duration(0)
	var sum time.Duration
	for _, rq := range requests {
		if rq.Arrival > now {
			now = rq.Arrival
		}
		now += soc.BatchLatency(big, rq.Model, 1)
		sum += now - rq.Arrival
	}
	fmt.Printf("\nserial CPU FIFO mean sojourn: %.1fms\n",
		(sum/time.Duration(len(requests))).Seconds()*1e3)
}
