package hetero2pipe_test

import (
	"testing"

	"hetero2pipe"

	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/workload"
)

// TestIntegrationSweep is the end-to-end acceptance sweep: every preset SoC
// runs a spread of mixed workloads (seeded random combos, the intro
// application, the batching stream) through the full plan-and-execute path,
// and on every run the planned pipeline beats the serial CPU baseline. It
// is the repository's "does the whole system hold together" check.
func TestIntegrationSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep spans every preset")
	}
	gen, err := workload.NewGenerator(31337, 3, 6)
	if err != nil {
		t.Fatal(err)
	}
	workloads := [][]string{
		workload.SceneUnderstanding(),
		workload.VideoAnalytics(8),
	}
	workloads = append(workloads, gen.Combos(4)...)

	for _, platform := range soc.AllPresets() {
		if platform.Name == "DesktopCUDA" {
			continue // single-processor reference; nothing to pipeline
		}
		platform := platform
		t.Run(platform.Name, func(t *testing.T) {
			sys, err := hetero2pipe.NewSystemFor(platform)
			if err != nil {
				t.Fatal(err)
			}
			for wi, names := range workloads {
				res, err := sys.RunContext(t.Context(), names...)
				if err != nil {
					t.Fatalf("workload %d (%v): %v", wi, names, err)
				}
				if err := res.Plan.Schedule.Validate(); err != nil {
					t.Fatalf("workload %d: invalid schedule: %v", wi, err)
				}
				if got := len(res.Execution.Completions); got != len(names) {
					t.Fatalf("workload %d: %d completions for %d requests", wi, got, len(names))
				}
				serial, err := sys.SerialBaseline(names...)
				if err != nil {
					t.Fatalf("workload %d: baseline: %v", wi, err)
				}
				if res.Latency >= serial {
					t.Errorf("workload %d (%v): planned %v not below serial %v",
						wi, names, res.Latency, serial)
				}
				if res.EnergyJoules <= 0 || res.PeakMemoryBytes <= 0 {
					t.Errorf("workload %d: degenerate metrics %+v", wi, res)
				}
				if res.PeakMemoryBytes > platform.MemoryCapacityBytes {
					t.Errorf("workload %d: peak memory %d exceeds capacity %d (Eq. 6)",
						wi, res.PeakMemoryBytes, platform.MemoryCapacityBytes)
				}
			}
		})
	}
}
