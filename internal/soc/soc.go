// Package soc models heterogeneous mobile systems-on-chip: the processors
// (CPU big/small clusters, embedded GPU, NPU), their roofline-style layer
// cost model, the shared memory bus, kernel-launch and memory-copy
// overheads, thermal behaviour (paper Appendix B) and batching (Appendix D).
//
// This package substitutes for the paper's physical Kirin 990 / Snapdragon
// 778G / Snapdragon 870 testbeds. The planner only ever consumes latencies
// and bandwidth demands produced here, so reproducing the *relative*
// behaviour of the silicon (processor ordering NPU ≫ CPU_B ≥ GPU ≫ CPU_S,
// operator affinity, memory-boundedness) reproduces the planning problem.
package soc

import (
	"errors"
	"fmt"
	"strconv"
	"time"

	"hetero2pipe/internal/model"
)

// Kind identifies a processor class.
type Kind int

// Processor classes, ordered here by the paper's capability ranking.
const (
	KindNPU Kind = iota + 1
	KindCPUBig
	KindGPU
	KindCPUSmall
	KindDesktopGPU // CUDA reference used only in the Fig. 13 comparison
)

var kindNames = map[Kind]string{
	KindNPU:        "NPU",
	KindCPUBig:     "CPU_B",
	KindGPU:        "GPU",
	KindCPUSmall:   "CPU_S",
	KindDesktopGPU: "CUDA",
}

// String returns the short processor-class name used in the paper's figures.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Valid reports whether k is a known processor class.
func (k Kind) Valid() bool {
	_, ok := kindNames[k]
	return ok
}

// Processor is one schedulable compute unit. CPU clusters are scheduled as a
// whole (per-cluster granularity): the paper's Appendix A shows per-core
// partitioning inside a cluster suffers up to 70 % slowdown from conflicting
// L2 misses, so — like the paper — we never split a cluster.
type Processor struct {
	// ID is unique within its SoC, e.g. "cpu-big".
	ID string
	// Kind is the processor class.
	Kind Kind
	// Cores is the core count (1 for GPU/NPU, which are indivisible).
	Cores int
	// PeakGFLOPS is the aggregate FP16 peak of the unit.
	PeakGFLOPS float64
	// Efficiency maps operator kinds to the achievable fraction of peak.
	// Missing kinds use DefaultEfficiency.
	Efficiency map[model.OpKind]float64
	// DefaultEfficiency is the fallback fraction of peak.
	DefaultEfficiency float64
	// SoloBandwidthGBps is the memory bandwidth the unit achieves running
	// alone (bounded by its memory-path width, below the bus total).
	SoloBandwidthGBps float64
	// L2Bytes is the last-level private cache; working sets above it go to
	// the shared bus (Observation 2).
	L2Bytes int64
	// LaunchOverhead is the fixed cost of dispatching one model slice
	// (kernel launch, command-queue submission, NPU graph load).
	LaunchOverhead time.Duration
	// DedicatedMemPath is the fraction of the unit's traffic served by a
	// private path that bypasses the shared bus. The paper attributes the
	// NPU's contention immunity to its "specialized design and dedicated
	// memory path".
	DedicatedMemPath float64
	// Thermal describes sustained-load throttling (Appendix B). A zero
	// value means no throttling.
	Thermal Thermal
	// Power describes the unit's busy/idle draw for energy accounting; a
	// zero value falls back to the class default (see PowerOf).
	Power Power
	// Degrade is the runtime derating state written by degradation events
	// (see Event); the zero value is nominal operation.
	Degrade Degradation
}

// Available reports whether the processor is currently in service.
func (p *Processor) Available() bool { return !p.Degrade.Offline }

// Supports reports whether the processor can execute the operator kind. Only
// NPUs restrict operator coverage; everything runs on CPUs and GPUs.
func (p *Processor) Supports(kind model.OpKind) bool {
	if p.Kind == KindNPU {
		return kind.NPUSupported()
	}
	return true
}

// efficiency returns the fraction of peak for an operator kind.
func (p *Processor) efficiency(kind model.OpKind) float64 {
	if e, ok := p.Efficiency[kind]; ok {
		return e
	}
	return p.DefaultEfficiency
}

// LayerTime returns the solo execution time of one layer on the processor,
// using a roofline model: the layer takes the larger of its compute time and
// its memory time, where working sets that spill the L2 pay full-traffic
// bandwidth cost and cache-resident layers pay a reduced one. The result is
// the T^e term of Eq. (2) at layer granularity, before thermal throttling.
//
// LayerTime returns +Inf when the processor cannot execute the layer's
// operator, mirroring the "error is reported due to unsupported operators"
// behaviour of Fig. 1; callers that want Band-style fallback must detect the
// unsupported layers first. An offline processor (degradation events)
// likewise returns +Inf for every layer, so freshly measured cost tables
// route all work to the surviving processors.
func (p *Processor) LayerTime(l model.Layer) time.Duration {
	if p.Degrade.Offline || !p.Supports(l.Kind) {
		return InfDuration
	}
	eff := p.efficiency(l.Kind)
	computeSec := l.FLOPs / (p.PeakGFLOPS * eff * 1e9)
	memSec := float64(l.TrafficBytes()) / (p.SoloBandwidthGBps * 1e9)
	if l.WorkingSetBytes <= p.L2Bytes {
		// Cache-resident: weights stream once, activations mostly hit.
		memSec *= cacheResidentTrafficFactor
	}
	sec := computeSec
	if memSec > sec {
		sec = memSec
	}
	sec *= p.Thermal.SteadyStateFactor()
	sec *= p.Degrade.LatencyFactor()
	return time.Duration(sec * float64(time.Second))
}

// BusTrafficBytes returns the bytes of shared-bus traffic one execution of
// the layer generates on this processor. Activations always count in full:
// without cross-kernel fusion every intermediate tensor round-trips DRAM
// between kernels, which is what makes many-small-layer networks
// (SqueezeNet, GoogLeNet) bandwidth-hungry despite their low FLOPs
// (Observation 3). Weights are discounted when the working set is
// cache-resident and amplified by tiling re-fetches when it spills L2
// (Observation 2). Traffic served by a dedicated memory path (NPU) is
// excluded last. This is the quantity the contention model sums.
func (p *Processor) BusTrafficBytes(l model.Layer) float64 {
	acts := float64(l.InputBytes+l.OutputBytes) * activationPassFactor
	weights := float64(l.WeightBytes)
	if l.WorkingSetBytes > p.L2Bytes {
		amp := float64(l.WorkingSetBytes) / float64(p.L2Bytes)
		if amp > spillAmplificationMax {
			amp = spillAmplificationMax
		}
		weights *= amp
	} else {
		weights *= cacheResidentTrafficFactor
	}
	return (acts + weights) * (1 - p.DedicatedMemPath)
}

// Validate reports the first configuration problem, or nil.
func (p *Processor) Validate() error {
	switch {
	case p.ID == "":
		return errors.New("processor has empty ID")
	case !p.Kind.Valid():
		return fmt.Errorf("processor %q has invalid kind", p.ID)
	case p.Cores <= 0:
		return fmt.Errorf("processor %q has non-positive core count", p.ID)
	case p.PeakGFLOPS <= 0:
		return fmt.Errorf("processor %q has non-positive peak", p.ID)
	case p.DefaultEfficiency <= 0 || p.DefaultEfficiency > 1:
		return fmt.Errorf("processor %q default efficiency %g outside (0,1]", p.ID, p.DefaultEfficiency)
	case p.SoloBandwidthGBps <= 0:
		return fmt.Errorf("processor %q has non-positive bandwidth", p.ID)
	case p.DedicatedMemPath < 0 || p.DedicatedMemPath > 1:
		return fmt.Errorf("processor %q dedicated path %g outside [0,1]", p.ID, p.DedicatedMemPath)
	}
	if err := p.Degrade.Validate(); err != nil {
		return fmt.Errorf("processor %q: %w", p.ID, err)
	}
	for kind, e := range p.Efficiency {
		if e <= 0 || e > 1 {
			return fmt.Errorf("processor %q efficiency for %v = %g outside (0,1]", p.ID, kind, e)
		}
	}
	return nil
}

const (
	// cacheResidentTrafficFactor is the fraction of a cache-resident
	// layer's weight traffic that still reaches the shared bus
	// (compulsory streaming on first touch).
	cacheResidentTrafficFactor = 0.3
	// spillAmplificationMax caps the tiling re-fetch amplification of
	// weight traffic for working sets far beyond L2.
	spillAmplificationMax = 8.0
	// activationPassFactor models overlapping-tile re-reads of input
	// activations (im2col expansion, halo re-fetches): each activation
	// byte crosses the bus a few times per consuming kernel.
	activationPassFactor = 3.0
)

// InfDuration marks an impossible execution (unsupported operator).
const InfDuration = time.Duration(1<<63 - 1)

// SoC is a system-on-chip: an ordered processor set sharing one memory bus.
type SoC struct {
	// Name is the preset name, e.g. "Kirin990".
	Name string
	// Processors are ordered by computational capability, high to low, as
	// the paper's system model requires.
	Processors []Processor
	// BusBandwidthGBps is the total shared memory-bus capacity. The sum of
	// solo bandwidths exceeds it — that oversubscription is where
	// co-execution slowdown comes from.
	BusBandwidthGBps float64
	// CopyBandwidthGBps is the effective bandwidth of inter-processor
	// tensor copies on the unified memory (the T^c term of Eq. 2).
	CopyBandwidthGBps float64
	// CopyLatency is the fixed per-copy cost (cache flush, fence, driver).
	CopyLatency time.Duration
	// MemoryCapacityBytes is the memory available to inference (Eq. 6
	// bound); the paper measures ~2.5 GB available on the Kirin 990.
	MemoryCapacityBytes int64
	// MemFreqLevelsMHz are the DVFS memory-controller frequency steps, low
	// to high; Fig. 9's governor picks the lowest level whose bandwidth
	// covers demand.
	MemFreqLevelsMHz []int
	// BusDerate is the runtime bus-capacity fraction in (0, 1] written by
	// EventBandwidthSqueeze; 0 means nominal. It scales the co-execution
	// slowdown model's capacity, never the solo cost tables.
	BusDerate float64
}

// AppendState appends the SoC's runtime-state identity to b and returns
// the extended slice. The identity covers each processor's derating state
// (offline flag, throttle factor, DVFS factor) and the bus derate, and two
// SoC states share it exactly when they are the same state: a factor of 0
// and a factor of 1 are one state (Degradation.Canonical). It is read from
// those fields, so it needs no bookkeeping: a no-op event keeps it, and a
// return to an earlier state restores it. The nominal state's identity is
// empty, so a key that carries it costs nothing until an event moves the
// SoC. Fields outside it (processor speeds, bus and copy bandwidth) are
// fixed for the description's lifetime; an in-place edit of them changes
// no identity.
func (s *SoC) AppendState(b []byte) []byte {
	for k := range s.Processors {
		d := s.Processors[k].Degrade.Canonical()
		if d == (Degradation{}) {
			continue
		}
		b = strconv.AppendInt(b, int64(k), 10)
		if d.Offline {
			b = append(b, 'o')
		}
		if d.ThrottleFactor != 0 {
			b = strconv.AppendFloat(append(b, 't'), d.ThrottleFactor, 'g', -1, 64)
		}
		if d.FreqFraction != 0 {
			b = strconv.AppendFloat(append(b, 'f'), d.FreqFraction, 'g', -1, 64)
		}
		b = append(b, ';')
	}
	if f := nominalFactor(s.BusDerate); f != 1 {
		b = strconv.AppendFloat(append(b, 'b'), f, 'g', -1, 64)
	}
	return b
}

// State returns the SoC's runtime-state identity (AppendState) as a
// string: "" in the nominal state.
func (s *SoC) State() string {
	var buf [64]byte
	return string(s.AppendState(buf[:0]))
}

// EffectiveBusBandwidthGBps returns the shared-bus capacity after any
// runtime bandwidth squeeze.
func (s *SoC) EffectiveBusBandwidthGBps() float64 {
	if s.BusDerate > 0 {
		return s.BusBandwidthGBps * s.BusDerate
	}
	return s.BusBandwidthGBps
}

// NumProcessors returns the processor count (the paper's K).
func (s *SoC) NumProcessors() int { return len(s.Processors) }

// Processor returns the processor with the given ID, or nil.
func (s *SoC) Processor(id string) *Processor {
	for i := range s.Processors {
		if s.Processors[i].ID == id {
			return &s.Processors[i]
		}
	}
	return nil
}

// ProcessorsOfKind returns the indices of processors of the given kind.
func (s *SoC) ProcessorsOfKind(kind Kind) []int {
	var out []int
	for i := range s.Processors {
		if s.Processors[i].Kind == kind {
			out = append(out, i)
		}
	}
	return out
}

// CopyTime returns the tensor-copy cost of moving b bytes between two
// processors' address spaces (T^c of Eq. 2). Copies between a processor and
// itself are free.
func (s *SoC) CopyTime(bytes int64) time.Duration {
	if bytes <= 0 {
		return 0
	}
	sec := float64(bytes) / (s.CopyBandwidthGBps * 1e9)
	return s.CopyLatency + time.Duration(sec*float64(time.Second))
}

// Validate reports the first configuration problem, or nil.
func (s *SoC) Validate() error {
	if s.Name == "" {
		return errors.New("soc has empty name")
	}
	if len(s.Processors) == 0 {
		return fmt.Errorf("soc %q has no processors", s.Name)
	}
	seen := make(map[string]bool, len(s.Processors))
	for i := range s.Processors {
		p := &s.Processors[i]
		if err := p.Validate(); err != nil {
			return fmt.Errorf("soc %q: %w", s.Name, err)
		}
		if seen[p.ID] {
			return fmt.Errorf("soc %q has duplicate processor ID %q", s.Name, p.ID)
		}
		seen[p.ID] = true
	}
	if s.BusBandwidthGBps <= 0 {
		return fmt.Errorf("soc %q has non-positive bus bandwidth", s.Name)
	}
	if s.CopyBandwidthGBps <= 0 {
		return fmt.Errorf("soc %q has non-positive copy bandwidth", s.Name)
	}
	if s.MemoryCapacityBytes <= 0 {
		return fmt.Errorf("soc %q has non-positive memory capacity", s.Name)
	}
	for i := 1; i < len(s.MemFreqLevelsMHz); i++ {
		if s.MemFreqLevelsMHz[i] <= s.MemFreqLevelsMHz[i-1] {
			return fmt.Errorf("soc %q memory frequency levels not increasing", s.Name)
		}
	}
	if s.BusDerate != 0 && !(s.BusDerate > 0 && s.BusDerate <= 1) {
		return fmt.Errorf("soc %q bus derate %g outside (0,1]", s.Name, s.BusDerate)
	}
	return nil
}
