package soc

import (
	"testing"
	"time"

	"hetero2pipe/internal/model"
)

// referenceBatchLatency, referenceBatchScale and referenceAlignmentBatch are
// BatchLatency, batchScale and AlignmentBatch as they stood before
// BatchCurve: a full pass over the layers for every batch size, and an
// alignment scan that makes one such pass per candidate size. They are kept
// verbatim so TestBatchCurveReference can pin the curve's arithmetic to
// them bit for bit.
func referenceBatchLatency(p *Processor, m *model.Model, batch int) time.Duration {
	if batch < 1 {
		batch = 1
	}
	perSample := time.Duration(0)
	for _, l := range m.Layers {
		t := p.LayerTime(l)
		if t == InfDuration {
			return InfDuration
		}
		perSample += t
	}
	// Weight-load time: streaming the parameter set into caches/buffers.
	loadSec := float64(m.TotalWeightBytes()) / (p.SoloBandwidthGBps * 1e9)
	fixed := p.LaunchOverhead + time.Duration(loadSec*float64(time.Second))

	scale := referenceBatchScale(p, batch)
	return fixed + time.Duration(float64(perSample)*scale)
}

func referenceBatchScale(p *Processor, batch int) float64 {
	if p.Kind != KindDesktopGPU {
		return float64(batch)
	}
	// Sub-linear until ~8 concurrent samples saturate the SMs.
	const saturation = 8.0
	n := float64(batch)
	if n <= saturation {
		return 1 + (n-1)*0.35
	}
	base := 1 + (saturation-1)*0.35
	return base + (n-saturation)*0.9
}

func referenceAlignmentBatch(p *Processor, light *model.Model, target time.Duration, maxBatch int) int {
	if maxBatch < 1 {
		maxBatch = 1
	}
	for n := 1; n <= maxBatch; n++ {
		if referenceBatchLatency(p, light, n) >= target {
			return n
		}
	}
	return maxBatch
}

// batchCurveInput is one processor of one preset in one state.
type batchCurveInput struct {
	label string
	p     *Processor
}

// batchCurveInputs returns every built-in preset in every state the
// reference test sweeps — nominal, each processor offline in turn, each
// processor throttled in turn, and the bus squeezed — each on a fresh
// instance. An offline or throttle event changes only its own processor's
// curve, so those states contribute that processor alone; the others would
// repeat the nominal curves bit for bit.
func batchCurveInputs(tb testing.TB) []batchCurveInput {
	tb.Helper()
	var out []batchCurveInput
	for i, preset := range AllPresets() {
		fresh := func(label string, ev *Event) *SoC {
			s := AllPresets()[i]
			if ev != nil {
				if _, err := s.Apply(*ev); err != nil {
					tb.Fatalf("%s/%s: %v", preset.Name, label, err)
				}
			}
			return s
		}
		for _, state := range []string{"nominal", "bus-squeeze"} {
			var ev *Event
			if state == "bus-squeeze" {
				ev = &Event{Kind: EventBandwidthSqueeze, Factor: 0.4}
			}
			s := fresh(state, ev)
			for pi := range s.Processors {
				out = append(out, batchCurveInput{preset.Name + "/" + state + "/" + s.Processors[pi].ID, &s.Processors[pi]})
			}
		}
		for pi, proc := range preset.Processors {
			for _, ev := range []Event{
				{Kind: EventProcessorOffline, Processor: proc.ID},
				{Kind: EventThermalThrottle, Processor: proc.ID, Factor: 2.5},
			} {
				label := preset.Name + "/" + ev.Kind.String() + "/" + proc.ID
				out = append(out, batchCurveInput{label, &fresh(label, &ev).Processors[pi]})
			}
		}
	}
	return out
}

// TestBatchCurveReference sweeps every preset (DesktopCUDA for its
// sub-linear scale) × SoC state × processor × zoo model × batched variant
// against the kept references. Latency(n) must equal the reference for
// every n in [-1, 64], and BatchLatency and MarginalBatchCost at the sizes
// where the scale changes shape. Align must return the reference scan's
// batch for targets on, 1 ns below and 1 ns above a curve point, at maxBatch
// 64, 32, 2, 1 and 0. A reference scan costs one layer pass per candidate
// size, so each input takes two curve points, rotating through [1, 64]:
// every point is a target for dozens of inputs.
func TestBatchCurveReference(t *testing.T) {
	const maxN = 64
	curves, aligns := 0, 0
	for _, in := range batchCurveInputs(t) {
		p := in.p
		for _, name := range model.Names() {
			for _, batch := range []int{1, 4, 8} {
				m := model.Batched(model.MustByName(name), batch)
				where := in.label + "/" + m.Name
				c := NewBatchCurve(p, m)
				ref := make([]time.Duration, maxN+1)
				for n := -1; n <= maxN; n++ {
					want := referenceBatchLatency(p, m, n)
					if n >= 0 {
						ref[n] = want
					}
					if got := c.Latency(n); got != want {
						t.Fatalf("%s: Latency(%d) = %d, reference %d", where, n, got, want)
					}
				}
				for _, n := range []int{-1, 0, 1, 2, 8, 9, 32, maxN} {
					if got := BatchLatency(p, m, n); got != referenceBatchLatency(p, m, n) {
						t.Fatalf("%s: BatchLatency(%d) = %d, reference %d", where, n, got, referenceBatchLatency(p, m, n))
					}
					want := referenceBatchLatency(p, m, 1)
					if n > 1 {
						want = ref[n] - ref[n-1]
					}
					if got := MarginalBatchCost(p, m, n); got != want {
						t.Fatalf("%s: MarginalBatchCost(%d) = %d, reference %d", where, n, got, want)
					}
				}
				k := curves%(maxN/2) + 1
				for _, n := range []int{k, k + maxN/2} {
					for _, target := range []time.Duration{ref[n] - 1, ref[n], ref[n] + 1} {
						for _, maxBatch := range []int{maxN, 32, 2, 1, 0} {
							want := referenceAlignmentBatch(p, m, target, maxBatch)
							if got := c.Align(target, maxBatch); got != want {
								t.Fatalf("%s: Align(%d, %d) = %d, reference %d", where, target, maxBatch, got, want)
							}
							if got := AlignmentBatch(p, m, target, maxBatch); got != want {
								t.Fatalf("%s: AlignmentBatch(%d, %d) = %d, reference %d", where, target, maxBatch, got, want)
							}
							aligns++
						}
					}
				}
				curves++
			}
		}
	}
	t.Logf("%d curves, %d alignments identical to the reference", curves, aligns)
}
