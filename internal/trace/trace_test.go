package trace

import (
	"context"
	"testing"
	"time"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/workload"
)

func TestFrequencyForLevels(t *testing.T) {
	s := soc.Kirin990()
	levels := s.MemFreqLevelsMHz
	if got := FrequencyFor(s, 0); got != levels[0] {
		t.Errorf("zero demand → %d MHz, want lowest %d", got, levels[0])
	}
	max := levels[len(levels)-1]
	if got := FrequencyFor(s, s.BusBandwidthGBps*2); got != max {
		t.Errorf("over-demand → %d MHz, want max %d", got, max)
	}
	// Monotone in demand.
	prev := 0
	for d := 0.0; d <= s.BusBandwidthGBps; d += 0.5 {
		f := FrequencyFor(s, d)
		if f < prev {
			t.Fatalf("frequency not monotone at demand %.1f", d)
		}
		prev = f
	}
	empty := &soc.SoC{}
	if got := FrequencyFor(empty, 1); got != 0 {
		t.Errorf("no levels → %d, want 0", got)
	}
}

// TestFig9Shape: single-stage NPU execution stays below max memory
// frequency, while a multi-stage CPU/GPU pipeline throttles it to the
// maximum and visibly depletes available memory — the Fig. 9 story.
func TestFig9Shape(t *testing.T) {
	s := soc.Kirin990()
	pl, err := core.NewPlanner(s, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tiers := workload.MemoryTiers()
	var maxFreqs []int
	var minAvail []int64
	for _, names := range tiers {
		models, err := workload.Instantiate(names)
		if err != nil {
			t.Fatal(err)
		}
		plan, _, err := pl.PlanModels(context.Background(), models, 1)
		if err != nil {
			t.Fatal(err)
		}
		opts := pipeline.DefaultOptions()
		opts.SampleMemory = true
		res, err := pipeline.Execute(plan.Schedule, opts)
		if err != nil {
			t.Fatal(err)
		}
		points := FromResult(s, res)
		if len(points) == 0 {
			t.Fatalf("tier %v produced no trace", names)
		}
		maxFreqs = append(maxFreqs, MaxFrequency(points))
		minAvail = append(minAvail, MinAvailable(points))
	}
	// Deeper pipelines never lower the peak frequency and never increase
	// the memory floor.
	for i := 1; i < len(maxFreqs); i++ {
		if maxFreqs[i] < maxFreqs[i-1] {
			t.Errorf("tier %d peak freq %d below tier %d's %d", i, maxFreqs[i], i-1, maxFreqs[i-1])
		}
		if minAvail[i] > minAvail[i-1] {
			t.Errorf("tier %d memory floor %d above tier %d's %d", i, minAvail[i], i-1, minAvail[i-1])
		}
	}
	// The 3-stage pipeline must consume a visible chunk of memory.
	if minAvail[2] >= s.MemoryCapacityBytes {
		t.Error("3-stage pipeline consumed no memory")
	}
}

func TestFromResultClampsAvailable(t *testing.T) {
	s := soc.Kirin990()
	res := &pipeline.Result{MemTrace: []pipeline.MemSample{
		{At: time.Second, UsedBytes: s.MemoryCapacityBytes * 2, DemandGBps: 1},
	}}
	points := FromResult(s, res)
	if points[0].AvailableBytes != 0 {
		t.Errorf("available = %d, want clamp to 0", points[0].AvailableBytes)
	}
}

func TestAggregatesEmpty(t *testing.T) {
	if MinAvailable(nil) != 0 {
		t.Error("MinAvailable(nil) != 0")
	}
	if MaxFrequency(nil) != 0 {
		t.Error("MaxFrequency(nil) != 0")
	}
}

var _ = model.Names // keep import for helper extensions
