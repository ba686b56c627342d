package model

import (
	"errors"
	"fmt"
)

// Layer is one node of a network's layer chain. Hetero²Pipe partitions
// models at layer granularity (Definition 1, "Model Slicing"), so a Layer is
// the atomic unit of work the planner moves between processors.
//
// All sizes are in bytes assuming FP16 storage (the precision the paper's
// mobile deployments use); FLOPs count multiply-accumulates as two
// operations, the usual convention.
type Layer struct {
	// Name identifies the layer within its model (e.g. "conv3_2").
	Name string
	// Kind is the operator class; it drives hardware affinity and NPU
	// supportability.
	Kind OpKind
	// FLOPs is the floating-point operation count of one inference at
	// batch size 1.
	FLOPs float64
	// InputBytes is the size of the input activation tensor.
	InputBytes int64
	// OutputBytes is the size of the output activation tensor; this is the
	// amount copied between processors when a slice boundary falls after
	// this layer (the T^c term of Eq. 2).
	OutputBytes int64
	// WeightBytes is the size of the layer's parameters.
	WeightBytes int64
	// WorkingSetBytes approximates the live bytes the layer touches per
	// output tile; when it exceeds the L2 cache, the layer becomes
	// memory-bound (Observation 2).
	WorkingSetBytes int64
}

// TrafficBytes returns the total memory traffic a solo execution of the
// layer generates: inputs and weights read, outputs written. It is the
// numerator of the layer's bandwidth demand and the quantity the contention
// model works from.
func (l Layer) TrafficBytes() int64 {
	return l.InputBytes + l.WeightBytes + l.OutputBytes
}

// Validate reports the first structural problem with the layer, or nil.
func (l Layer) Validate() error {
	switch {
	case l.Name == "":
		return errors.New("layer has empty name")
	case !l.Kind.Valid():
		return fmt.Errorf("layer %q has invalid kind %d", l.Name, int(l.Kind))
	case l.FLOPs < 0:
		return fmt.Errorf("layer %q has negative FLOPs", l.Name)
	case l.InputBytes < 0 || l.OutputBytes < 0 || l.WeightBytes < 0 || l.WorkingSetBytes < 0:
		return fmt.Errorf("layer %q has negative byte count", l.Name)
	}
	return nil
}

// Model is an inference network represented as a linear chain of layers.
// Branchy architectures (GoogLeNet inception blocks, ResNet residuals,
// YOLOv4 routes) are serialised into their topological execution order; the
// paper's coarse-grained K-way slicing (Definition 1) treats models the same
// way, since a slice boundary is a cut of the whole dataflow at a depth.
type Model struct {
	// Name is the zoo-unique model name, e.g. "BERT".
	Name string
	// Layers is the execution-ordered layer chain.
	Layers []Layer
	// InputBytes is the network input size (one image / token sequence).
	InputBytes int64
}

// NumLayers returns the length of the layer chain.
func (m *Model) NumLayers() int { return len(m.Layers) }

// TotalFLOPs returns the per-inference FLOP count of the whole network.
func (m *Model) TotalFLOPs() float64 {
	var sum float64
	for _, l := range m.Layers {
		sum += l.FLOPs
	}
	return sum
}

// TotalWeightBytes returns the parameter size of the network — the "model
// size" the paper quotes (e.g. SqueezeNet 4.8 MB, GoogLeNet 23 MB).
func (m *Model) TotalWeightBytes() int64 {
	var sum int64
	for _, l := range m.Layers {
		sum += l.WeightBytes
	}
	return sum
}

// Validate checks structural consistency of the model: non-empty chain,
// valid layers, and tensor-size continuity (each layer's input matches the
// previous layer's output).
func (m *Model) Validate() error {
	if m.Name == "" {
		return errors.New("model has empty name")
	}
	if len(m.Layers) == 0 {
		return fmt.Errorf("model %q has no layers", m.Name)
	}
	if m.InputBytes <= 0 {
		return fmt.Errorf("model %q has non-positive input size", m.Name)
	}
	for i, l := range m.Layers {
		if err := l.Validate(); err != nil {
			return fmt.Errorf("model %q layer %d: %w", m.Name, i, err)
		}
	}
	if m.Layers[0].InputBytes != m.InputBytes {
		return fmt.Errorf("model %q: first layer input %d != model input %d",
			m.Name, m.Layers[0].InputBytes, m.InputBytes)
	}
	for i := 1; i < len(m.Layers); i++ {
		if m.Layers[i].InputBytes != m.Layers[i-1].OutputBytes {
			return fmt.Errorf("model %q: layer %d (%s) input %d != layer %d output %d",
				m.Name, i, m.Layers[i].Name, m.Layers[i].InputBytes, i-1, m.Layers[i-1].OutputBytes)
		}
	}
	return nil
}

// Clone returns a deep copy of the model. Planner passes mutate slice
// boundaries, never layers, but callers that edit layers (e.g. batching)
// must not alias the zoo's canonical instances.
func (m *Model) Clone() *Model {
	layers := make([]Layer, len(m.Layers))
	copy(layers, m.Layers)
	return &Model{Name: m.Name, Layers: layers, InputBytes: m.InputBytes}
}

// String summarises the model.
func (m *Model) String() string {
	return fmt.Sprintf("%s(%d layers, %.2f GFLOPs, %.1f MB weights)",
		m.Name, len(m.Layers), m.TotalFLOPs()/1e9, float64(m.TotalWeightBytes())/1e6)
}
