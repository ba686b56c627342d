package model

import (
	"fmt"
	"sort"
	"sync"
)

// Canonical zoo model names. The ten networks match Sec. VI-A of the paper.
const (
	AlexNet     = "AlexNet"
	VGG16       = "VGG16"
	GoogLeNet   = "GoogLeNet"
	InceptionV4 = "InceptionV4"
	ResNet50    = "ResNet50"
	YOLOv4      = "YOLOv4"
	MobileNetV2 = "MobileNetV2"
	SqueezeNet  = "SqueezeNet"
	BERT        = "BERT"
	ViT         = "ViT"
)

var zooBuilders = map[string]func() *Model{
	AlexNet:     NewAlexNet,
	VGG16:       NewVGG16,
	GoogLeNet:   NewGoogLeNet,
	InceptionV4: NewInceptionV4,
	ResNet50:    NewResNet50,
	YOLOv4:      NewYOLOv4,
	MobileNetV2: NewMobileNetV2,
	SqueezeNet:  NewSqueezeNet,
	BERT:        NewBERT,
	ViT:         NewViT,
}

// The zoo is built once and served as shared instances: constructing a
// network is hundreds of layer appends, and hot callers (experiments,
// planners, workload sweeps) look models up by name far more often than
// anyone mutates one. Nothing in the repo writes to a looked-up model —
// mutation goes through Clone (as Batched does) — so sharing is safe; the
// cache is guarded by a Once so concurrent first lookups build it exactly
// once.
var (
	zooOnce  sync.Once
	zooCache map[string]*Model
)

func cachedZoo() map[string]*Model {
	zooOnce.Do(func() {
		zooCache = make(map[string]*Model, len(zooBuilders)+len(extraBuilders))
		for name, build := range zooBuilders {
			zooCache[name] = build()
		}
		for name, build := range extraBuilders {
			zooCache[name] = build()
		}
	})
	return zooCache
}

// Names returns the zoo model names in deterministic (sorted) order.
func Names() []string {
	names := make([]string, 0, len(zooBuilders))
	for name := range zooBuilders {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ByName returns the shared instance of the named model, covering both the
// ten-network evaluation zoo and the extra application networks
// (ExtraNames). The instance is cached and must be treated as immutable;
// callers that need to modify a model must Clone it first.
func ByName(name string) (*Model, error) {
	if m, ok := cachedZoo()[name]; ok {
		return m, nil
	}
	return nil, fmt.Errorf("model: unknown zoo model %q", name)
}

// MustByName is ByName for static names; it panics on unknown names and is
// intended for tests and examples where the name is a compile-time constant.
func MustByName(name string) *Model {
	m, err := ByName(name)
	if err != nil {
		panic(err)
	}
	return m
}

// All returns the shared (immutable) instance of every zoo model in
// deterministic name order.
func All() []*Model {
	cache := cachedZoo()
	names := Names()
	out := make([]*Model, 0, len(names))
	for _, name := range names {
		out = append(out, cache[name])
	}
	return out
}

// LightweightNames returns the models the paper's Fig. 9 classifies as
// lightweight (<100 MB footprint): SqueezeNet, MobileNetV2, GoogLeNet.
func LightweightNames() []string {
	return []string{GoogLeNet, MobileNetV2, SqueezeNet}
}

// MediumNames returns the 100–300 MB tier: InceptionV4, ResNet50, AlexNet.
func MediumNames() []string {
	return []string{AlexNet, InceptionV4, ResNet50}
}

// HeavyNames returns the >300 MB tier: BERT, ViT, YOLOv4.
func HeavyNames() []string {
	return []string{BERT, ViT, YOLOv4}
}
