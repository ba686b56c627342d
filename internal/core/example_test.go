package core_test

import (
	"context"
	"fmt"

	"hetero2pipe/internal/contention"
	"hetero2pipe/internal/core"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// ExamplePlanner shows the basic planning flow: profile requests, run the
// two-step optimisation, execute the resulting pipeline.
func ExamplePlanner() {
	platform := soc.Kirin990()
	planner, err := core.NewPlanner(platform, core.DefaultOptions())
	if err != nil {
		panic(err)
	}
	plan, _, err := planner.PlanModels(context.Background(), []*model.Model{
		model.MustByName(model.ResNet50),
		model.MustByName(model.SqueezeNet),
	}, 1)
	if err != nil {
		panic(err)
	}
	res, err := pipeline.Execute(plan.Schedule, pipeline.DefaultOptions())
	if err != nil {
		panic(err)
	}
	fmt.Println("requests:", plan.Schedule.NumRequests())
	fmt.Println("finished:", len(res.Completions))
	// Output:
	// requests: 2
	// finished: 2
}

// ExamplePartition runs Algorithm 1 alone on one profiled model.
func ExamplePartition() {
	platform := soc.Kirin990()
	planner, err := core.NewPlanner(platform, core.DefaultOptions())
	if err != nil {
		panic(err)
	}
	_ = planner // Partition works on a profile directly:
	p, err := profileOf(platform, model.VGG16)
	if err != nil {
		panic(err)
	}
	cuts, _, err := core.Partition(p)
	if err != nil {
		panic(err)
	}
	fmt.Println("boundaries:", len(cuts))
	fmt.Println("covers all layers:", cuts[len(cuts)-1] == p.NumLayers())
	// Output:
	// boundaries: 5
	// covers all layers: true
}

// ExampleMitigate relocates a low-contention request between two
// conflicting high-contention ones (Algorithm 2).
func ExampleMitigate() {
	classes := []contention.Class{
		contention.High, contention.High,
		contention.Low, contention.Low, contention.Low,
	}
	order := core.Mitigate(classes, 2)
	for _, idx := range order {
		fmt.Print(classes[idx])
	}
	fmt.Println()
	// Output:
	// HLHLL
}

// profileOf builds a profile for one zoo model (helper for the examples).
func profileOf(s *soc.SoC, name string) (*profile.Profile, error) {
	return profile.New(s, model.MustByName(name))
}
