package stream_test

import (
	"context"
	"fmt"
	"time"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stream"
)

// ExampleScheduler runs a tiny online stream: two requests arriving apart,
// each planned in its own window.
func ExampleScheduler() {
	planner, err := core.NewPlanner(soc.Kirin990(), core.DefaultOptions())
	if err != nil {
		panic(err)
	}
	sched, err := stream.NewScheduler(planner, stream.DefaultConfig())
	if err != nil {
		panic(err)
	}
	requests := []stream.Request{
		{Model: model.MustByName(model.SqueezeNet), Arrival: 0},
		{Model: model.MustByName(model.MobileNetV2), Arrival: time.Second},
	}
	res, err := sched.RunContext(context.Background(), requests, pipeline.DefaultOptions())
	if err != nil {
		panic(err)
	}
	fmt.Println("windows:", res.Windows)
	fmt.Println("all completed:", len(res.Completions))
	// Output:
	// windows: 2
	// all completed: 2
}
