// Video analytics: continuous classification of camera frames with
// lightweight models alongside a heavy transformer (the paper's Appendix-D
// scenario). A single lightweight inference is 20–40× shorter than the
// heavy model's stage, so vertical alignment is hopeless at batch size 1;
// batching closes the gap (Fig. 13) and amortises the per-launch weight
// loading. The example picks the alignment batch size per processor and
// shows the throughput gain of batched scheduling.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/workload"
)

func main() {
	platform := soc.Kirin990()
	big := platform.Processor("cpu-big")
	heavy := model.MustByName(model.BERT)
	light := model.MustByName(model.MobileNetV2)

	// The 20–40× light/heavy gap of Appendix D.
	heavyLat := soc.BatchLatency(big, heavy, 1)
	lightLat := soc.BatchLatency(big, light, 1)
	fmt.Printf("single inference: %s %.1f ms, %s %.1f ms (gap %.0f×)\n",
		heavy.Name, heavyLat.Seconds()*1e3, light.Name, lightLat.Seconds()*1e3,
		heavyLat.Seconds()/lightLat.Seconds())

	// Alignment batch per processor: the smallest batch whose latency
	// matches the heavy stage.
	fmt.Println("\nalignment batch size per processor (target: one BERT stage):")
	for i := range platform.Processors {
		p := &platform.Processors[i]
		if soc.BatchLatency(p, light, 1) == soc.InfDuration {
			continue
		}
		n := soc.AlignmentBatch(p, light, heavyLat, 256)
		fmt.Printf("  %-10s batch %3d  (batched latency %.1f ms)\n",
			p.ID, n, soc.BatchLatency(p, light, n).Seconds()*1e3)
	}

	// Streaming workload: 16 frames of light models around one heavy
	// request, planned and executed end-to-end.
	names := workload.VideoAnalytics(16)
	models, err := workload.Instantiate(names)
	if err != nil {
		log.Fatal(err)
	}
	planner, err := core.NewPlanner(platform, core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	start := time.Now()
	plan, _, _, err := planner.PlanModels(context.Background(), models, 1)
	if err != nil {
		log.Fatal(err)
	}
	planCost := time.Since(start)
	res, err := pipeline.ExecuteContext(context.Background(), plan.Schedule, pipeline.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nstream of %d requests: latency %.1f ms, throughput %.1f inf/s (planning took %v)\n",
		len(names), res.Makespan.Seconds()*1e3, res.Throughput(), planCost.Round(time.Millisecond))
}
