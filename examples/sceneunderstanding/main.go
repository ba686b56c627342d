// Scene understanding: the paper's motivating multi-modal application
// (Sec. I) — object detection, face embedding, attribute classification and
// transformer captioning over each camera frame. The example plans the mix
// with every scheme (serial MNN, Pipe-it, Band, Hetero²Pipe) on all three
// SoC presets and prints the frame latency each achieves, reproducing the
// Fig. 7 comparison on a concrete application.
package main

import (
	"context"
	"fmt"
	"log"

	"hetero2pipe/internal/baseline"
	"hetero2pipe/internal/core"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/workload"
)

func main() {
	names := workload.SceneUnderstanding()
	fmt.Println("scene-understanding request mix:", names)
	fmt.Println()

	for _, platform := range soc.Presets() {
		models, err := workload.Instantiate(names)
		if err != nil {
			log.Fatal(err)
		}
		profiles := make([]*profile.Profile, len(models))
		for i, m := range models {
			p, err := profile.New(platform, m)
			if err != nil {
				log.Fatal(err)
			}
			profiles[i] = p
		}

		fmt.Printf("%s:\n", platform.Name)
		report := func(scheme string, sched *pipeline.Schedule, err error) {
			if err != nil {
				log.Fatalf("%s/%s: %v", platform.Name, scheme, err)
			}
			res, err := pipeline.Execute(sched, pipeline.DefaultOptions())
			if err != nil {
				log.Fatalf("%s/%s: %v", platform.Name, scheme, err)
			}
			fmt.Printf("  %-12s frame latency %8.1f ms  (%.2f inferences/s)\n",
				scheme, res.Makespan.Seconds()*1e3, res.Throughput())
		}

		sched, err := baseline.SerialMNN(platform, profiles)
		report("serial MNN", sched, err)
		sched, err = baseline.PipeIt(platform, profiles)
		report("Pipe-it", sched, err)
		sched, err = baseline.Band(platform, profiles)
		report("Band", sched, err)

		planner, err := core.NewPlanner(platform, core.DefaultOptions())
		if err != nil {
			log.Fatal(err)
		}
		plan, err := planner.PlanProfiles(context.Background(), profiles)
		report("Hetero²Pipe", plan.Schedule, err)
		fmt.Println()
	}
}
