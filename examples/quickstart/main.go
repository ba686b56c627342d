// Quickstart: plan three DNN inference requests on a Kirin 990, execute the
// pipeline under the co-execution slowdown model, and print the speedup over
// serial CPU execution. This is the smallest end-to-end use of the library,
// via the top-level facade; the other examples reach into the internal
// packages for finer control.
package main

import (
	"context"
	"fmt"
	"log"

	"hetero2pipe"
)

func main() {
	sys, err := hetero2pipe.NewSystem("Kirin990")
	if err != nil {
		log.Fatal(err)
	}

	names := []string{"ResNet50", "BERT", "SqueezeNet"}
	res, err := sys.RunContext(context.Background(), names...)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("latency    %8.2f ms\n", res.Latency.Seconds()*1e3)
	fmt.Printf("throughput %8.2f inferences/s\n", res.Throughput)
	fmt.Printf("energy     %8.2f J\n", res.EnergyJoules)

	serial, err := sys.SerialBaseline(names...)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("speedup    %8.2f× over serial CPU\n",
		serial.Seconds()/res.Latency.Seconds())

	fmt.Println()
	fmt.Print(res.Gantt(64))
}
