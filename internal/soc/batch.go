package soc

import (
	"time"

	"hetero2pipe/internal/model"
)

// Batching model (paper Appendix D, Fig. 13). On mobile processors the
// limited on-chip memory makes batched latency an affine function of batch
// size: latency(n) ≈ a + b·n, where a amortises kernel launch and weight
// loading and b is the per-sample compute/memory time. Desktop CUDA GPUs,
// with abundant on-chip SRAM and massive parallelism, batch sub-linearly
// until occupancy saturates.

// BatchCurve is one model's batched-latency curve on one processor:
// latency(n) = fixed + perSample·batchScale(n), where fixed is one launch
// overhead plus one weight load and perSample is the summed solo layer time.
// NewBatchCurve measures both terms in a single pass over the layers, so
// every batch size after that costs a multiply and an add.
//
// A curve is a snapshot: it reads the processor's throttle and degradation
// state once, at construction, and does not follow later events.
type BatchCurve struct {
	fixed, perSample time.Duration
	kind             Kind
	// inf marks a model the processor cannot run (an unsupported operator,
	// or the processor is offline): every point is InfDuration.
	inf bool
}

// NewBatchCurve measures m's batch-latency curve on p in one pass over its
// layers. Weights are loaded once per batch, which is what makes batching
// lightweight models profitable.
func NewBatchCurve(p *Processor, m *model.Model) BatchCurve {
	c := BatchCurve{kind: p.Kind}
	var weights int64
	for _, l := range m.Layers {
		t := p.LayerTime(l)
		if t == InfDuration {
			c.inf = true
			return c
		}
		c.perSample += t
		weights += l.WeightBytes
	}
	// Weight-load time: streaming the parameter set into caches/buffers.
	loadSec := float64(weights) / (p.SoloBandwidthGBps * 1e9)
	c.fixed = p.LaunchOverhead + time.Duration(loadSec*float64(time.Second))
	return c
}

// Latency returns the curve's latency at the given batch size; sizes below
// 1 count as 1.
func (c BatchCurve) Latency(batch int) time.Duration {
	if c.inf {
		return InfDuration
	}
	if batch < 1 {
		batch = 1
	}
	return c.fixed + time.Duration(float64(c.perSample)*batchScale(c.kind, batch))
}

// Align returns the smallest batch size in [1, maxBatch] whose latency
// meets or exceeds target, or maxBatch when none does — the Appendix-D
// workaround that closes the 20–40× gap between light and heavy models so
// vertical alignment has comparable stage durations to work with. A
// maxBatch below 1 counts as 1.
func (c BatchCurve) Align(target time.Duration, maxBatch int) int {
	if maxBatch < 1 {
		maxBatch = 1
	}
	for n := 1; n <= maxBatch; n++ {
		if c.Latency(n) >= target {
			return n
		}
	}
	return maxBatch
}

// batchScale returns the effective multiple of per-sample time for a batch.
// Mobile units are already fully utilised at batch 1, so scaling is linear
// (slope ≈ 1); the desktop GPU overlaps samples until it saturates.
func batchScale(kind Kind, batch int) float64 {
	if kind != KindDesktopGPU {
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

// BatchLatency returns the latency of executing the whole model at the given
// batch size on the processor, including one launch overhead and one weight
// load. Callers evaluating several batch sizes of one model should build
// its BatchCurve once instead.
func BatchLatency(p *Processor, m *model.Model, batch int) time.Duration {
	return NewBatchCurve(p, m).Latency(batch)
}

// MarginalBatchCost returns latency(n) - latency(n-1), the "rate of change
// in inference latency as batch size increases" plotted in Fig. 13.
func MarginalBatchCost(p *Processor, m *model.Model, batch int) time.Duration {
	c := NewBatchCurve(p, m)
	if batch <= 1 {
		return c.Latency(1)
	}
	return c.Latency(batch) - c.Latency(batch-1)
}

// AlignmentBatch returns the smallest batch size whose batched latency for
// the light model meets or exceeds the target duration (see BatchCurve.Align).
func AlignmentBatch(p *Processor, light *model.Model, target time.Duration, maxBatch int) int {
	return NewBatchCurve(p, light).Align(target, maxBatch)
}
