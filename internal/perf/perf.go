// Package perf is a synthetic Performance Monitoring Unit. The paper reads
// three perf events from the CPU PMU — Instructions Per Cycle, cache-miss
// rate and stalled-cycles-backend — and uses them as the feature vector X of
// the contention-intensity regression (Eq. 1). This package derives the same
// three counters from a model's layer mix and working-set behaviour on a
// given processor, preserving the property the regression depends on: all
// three correlate with the model's memory-traffic pressure.
package perf

import (
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/soc"
)

// Counters are the three PMU-derived features of Fig. 2(b).
type Counters struct {
	// IPC is instructions per cycle; higher means less external-memory
	// waiting and hence less interference imposed on co-runners.
	IPC float64
	// CacheMissRate is the fraction of cache accesses that miss and reach
	// the shared bus.
	CacheMissRate float64
	// StalledBackend is the fraction of cycles the backend stalls waiting
	// for resources.
	StalledBackend float64
}

// FeatureVector returns the counters as the regression feature slice
// {IPC, cache-miss rate, stalled-backend}.
func (c Counters) FeatureVector() []float64 {
	return []float64{c.IPC, c.CacheMissRate, c.StalledBackend}
}

// Synthesis coefficients. A fully compute-bound layer approaches ipcMax and
// the base miss/stall rates; a fully memory-bound layer approaches ipcMin
// and the peak rates. Values are anchored to the paper's observations: FC
// layers show 2–4× the cache misses of conv layers (Obs. 2); SqueezeNet and
// GoogLeNet rank at the top of the Fig. 2(b) demand ordering (Obs. 3).
const (
	ipcMax    = 3.2
	ipcMin    = 0.4
	missBase  = 0.02
	missPeak  = 0.55
	stallBase = 0.05
	stallPeak = 0.80
)

// layerMemoryPressure returns the fraction (0..1) of a layer's execution the
// memory system dominates on the processor: the time its effective bus
// traffic needs at solo bandwidth over the layer's execution time, capped
// at 1. This uses the same traffic model as the contention footprint, which
// is precisely why the three derived counters predict contention intensity
// (the correlation Eq. 1's regression exploits).
func layerMemoryPressure(p *soc.Processor, l model.Layer) float64 {
	t := p.LayerTime(l)
	if t == soc.InfDuration || t <= 0 {
		return 0
	}
	memSec := p.BusTrafficBytes(l) / (p.SoloBandwidthGBps * 1e9)
	pressure := memSec / t.Seconds()
	if pressure > 1 {
		pressure = 1
	}
	return pressure
}

// Profile synthesises the PMU counters of executing the whole model solo on
// the processor. Each layer contributes weighted by its execution time, the
// way a sampling PMU read over the full inference would.
func Profile(p *soc.Processor, m *model.Model) Counters {
	var totalTime, accIPC, accMiss, accStall float64
	for _, l := range m.Layers {
		t := p.LayerTime(l)
		if t == soc.InfDuration {
			continue // unsupported layers never execute here
		}
		sec := t.Seconds()
		mp := layerMemoryPressure(p, l)
		accIPC += sec * (ipcMax - (ipcMax-ipcMin)*mp)
		accMiss += sec * (missBase + (missPeak-missBase)*mp)
		accStall += sec * (stallBase + (stallPeak-stallBase)*mp)
		totalTime += sec
	}
	if totalTime == 0 {
		return Counters{IPC: ipcMax, CacheMissRate: missBase, StalledBackend: stallBase}
	}
	return Counters{
		IPC:            accIPC / totalTime,
		CacheMissRate:  accMiss / totalTime,
		StalledBackend: accStall / totalTime,
	}
}
