package model

import (
	"math"
	"testing"
)

func TestZooModelsValidate(t *testing.T) {
	for _, name := range Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			m := MustByName(name)
			if err := m.Validate(); err != nil {
				t.Fatalf("Validate() = %v", err)
			}
		})
	}
}

func TestZooNamesComplete(t *testing.T) {
	names := Names()
	if len(names) != 10 {
		t.Fatalf("zoo has %d models, want 10: %v", len(names), names)
	}
	want := map[string]bool{
		AlexNet: true, VGG16: true, GoogLeNet: true, InceptionV4: true,
		ResNet50: true, YOLOv4: true, MobileNetV2: true, SqueezeNet: true,
		BERT: true, ViT: true,
	}
	for _, n := range names {
		if !want[n] {
			t.Errorf("unexpected zoo model %q", n)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("NoSuchNet"); err == nil {
		t.Fatal("ByName(unknown) = nil error, want error")
	}
}

func TestMustByNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustByName(unknown) did not panic")
		}
	}()
	MustByName("NoSuchNet")
}

// TestFLOPMagnitudes checks each network's total FLOPs lies in the
// right order-of-magnitude band relative to the published architecture, so
// the planner sees realistic relative compute loads.
func TestFLOPMagnitudes(t *testing.T) {
	bands := map[string][2]float64{ // [min, max] GFLOPs
		AlexNet:     {0.5, 5},
		VGG16:       {10, 40},
		GoogLeNet:   {1, 8},
		InceptionV4: {6, 40},
		ResNet50:    {2, 12},
		YOLOv4:      {25, 150},
		MobileNetV2: {0.1, 2},
		SqueezeNet:  {0.1, 3},
		BERT:        {10, 60},
		ViT:         {15, 80},
	}
	for name, band := range bands {
		g := MustByName(name).TotalFLOPs() / 1e9
		if g < band[0] || g > band[1] {
			t.Errorf("%s: %.2f GFLOPs outside [%g, %g]", name, g, band[0], band[1])
		}
	}
}

// TestWeightMagnitudes checks parameter sizes (FP16 bytes) against the
// published model sizes within generous bands.
func TestWeightMagnitudes(t *testing.T) {
	bands := map[string][2]float64{ // [min, max] MB of FP16 weights
		AlexNet:     {60, 250},
		VGG16:       {150, 400},
		GoogLeNet:   {5, 60},
		InceptionV4: {25, 200},
		ResNet50:    {25, 120},
		YOLOv4:      {60, 300},
		MobileNetV2: {2, 25},
		SqueezeNet:  {0.5, 12},
		BERT:        {150, 400},
		ViT:         {100, 300},
	}
	for name, band := range bands {
		mb := float64(MustByName(name).TotalWeightBytes()) / 1e6
		if mb < band[0] || mb > band[1] {
			t.Errorf("%s: %.1f MB weights outside [%g, %g]", name, mb, band[0], band[1])
		}
	}
}

// TestRelativeSizes pins the cross-model orderings the paper relies on.
func TestRelativeSizes(t *testing.T) {
	flops := func(n string) float64 { return MustByName(n).TotalFLOPs() }
	if !(flops(SqueezeNet) < flops(ResNet50) && flops(ResNet50) < flops(YOLOv4)) {
		t.Error("expected FLOPs(SqueezeNet) < FLOPs(ResNet50) < FLOPs(YOLOv4)")
	}
	if !(flops(MobileNetV2) < flops(VGG16)) {
		t.Error("expected FLOPs(MobileNetV2) < FLOPs(VGG16)")
	}
	// ViT is ~70× SqueezeNet in weight size (Observation 3 cites 70×).
	ratio := float64(MustByName(ViT).TotalWeightBytes()) / float64(MustByName(SqueezeNet).TotalWeightBytes())
	if ratio < 20 {
		t.Errorf("ViT/SqueezeNet weight ratio = %.1f, want ≥ 20", ratio)
	}
}

// TestNPUSupport verifies the operator-support split the paper reports:
// YOLOv4 and BERT (and ViT) contain NPU-unsupported operators, while plain
// CNN classifiers are fully supported.
func TestNPUSupport(t *testing.T) {
	unsupported := []string{YOLOv4, BERT, ViT}
	for _, name := range unsupported {
		if len(npuUnsupportedLayers(MustByName(name))) == 0 {
			t.Errorf("%s: expected NPU-unsupported operators", name)
		}
	}
	supported := []string{AlexNet, VGG16, ResNet50, MobileNetV2, SqueezeNet, GoogLeNet, InceptionV4}
	for _, name := range supported {
		if idx := npuUnsupportedLayers(MustByName(name)); len(idx) > 0 {
			t.Errorf("%s: unexpected unsupported layers %v", name, idx)
		}
	}
}

func TestFCLayersAreMemoryBound(t *testing.T) {
	// Observation 2: FC layers in VGG/AlexNet have far lower arithmetic
	// intensity than conv layers.
	m := MustByName(VGG16)
	var convIntensity, fcIntensity []float64
	for _, l := range m.Layers {
		switch l.Kind {
		case OpConv:
			convIntensity = append(convIntensity, arithmeticIntensity(l))
		case OpFC:
			fcIntensity = append(fcIntensity, arithmeticIntensity(l))
		}
	}
	if len(convIntensity) == 0 || len(fcIntensity) == 0 {
		t.Fatal("VGG16 missing conv or fc layers")
	}
	meanConv := mean(convIntensity)
	meanFC := mean(fcIntensity)
	if meanFC*2 > meanConv {
		t.Errorf("FC intensity %.2f not well below conv intensity %.2f", meanFC, meanConv)
	}
}

func TestAttentionLayersAreMemoryBound(t *testing.T) {
	m := MustByName(BERT)
	for _, l := range m.Layers {
		if l.Kind == OpAttention && l.WorkingSetBytes < 1<<20 {
			t.Errorf("attention layer %s working set %d < 1 MiB; should exceed mobile L2",
				l.Name, l.WorkingSetBytes)
		}
	}
}

func TestTrafficBytes(t *testing.T) {
	l := Layer{Name: "x", Kind: OpConv, InputBytes: 10, OutputBytes: 20, WeightBytes: 5}
	if got := l.TrafficBytes(); got != 35 {
		t.Errorf("TrafficBytes() = %d, want 35", got)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := MustByName(AlexNet)
	c := m.Clone()
	c.Layers[0].FLOPs = -1
	if m.Layers[0].FLOPs == -1 {
		t.Error("Clone shares layer storage with original")
	}
}

func TestValidateCatchesDiscontinuity(t *testing.T) {
	m := MustByName(AlexNet).Clone()
	m.Layers[3].InputBytes += 4
	if err := m.Validate(); err == nil {
		t.Error("Validate() = nil for tensor-size discontinuity, want error")
	}
}

func TestValidateCatchesBadLayer(t *testing.T) {
	cases := []Layer{
		{Name: "", Kind: OpConv},
		{Name: "x", Kind: OpKind(99)},
		{Name: "x", Kind: OpConv, FLOPs: -1},
		{Name: "x", Kind: OpConv, WeightBytes: -1},
	}
	for i, l := range cases {
		if err := l.Validate(); err == nil {
			t.Errorf("case %d: Validate() = nil, want error", i)
		}
	}
}

func TestOpKindString(t *testing.T) {
	if OpConv.String() != "Conv" {
		t.Errorf("OpConv.String() = %q", OpConv.String())
	}
	if OpKind(99).String() != "OpKind(99)" {
		t.Errorf("OpKind(99).String() = %q", OpKind(99).String())
	}
}

func TestTierNamesCoverZoo(t *testing.T) {
	seen := map[string]bool{}
	for _, lists := range [][]string{LightweightNames(), MediumNames(), HeavyNames()} {
		for _, n := range lists {
			if seen[n] {
				t.Errorf("model %q in multiple tiers", n)
			}
			seen[n] = true
			if _, err := ByName(n); err != nil {
				t.Errorf("tier model %q not in zoo", n)
			}
		}
	}
	if len(seen) != 9 {
		t.Errorf("tiers cover %d models, want 9 (VGG16 untiered per Fig. 9)", len(seen))
	}
}

func TestZooLayerCounts(t *testing.T) {
	// Coarse layer-count sanity: deep nets have long chains.
	minLayers := map[string]int{
		AlexNet: 10, VGG16: 18, ResNet50: 60, YOLOv4: 60,
		BERT: 80, ViT: 80, MobileNetV2: 50, SqueezeNet: 30,
		GoogLeNet: 30, InceptionV4: 50,
	}
	for name, min := range minLayers {
		if n := MustByName(name).NumLayers(); n < min {
			t.Errorf("%s: %d layers, want ≥ %d", name, n, min)
		}
	}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// arithmeticIntensity returns a layer's FLOPs per byte of solo memory
// traffic, the roofline x-axis Observation 2 reads.
func arithmeticIntensity(l Layer) float64 {
	return l.FLOPs / float64(l.TrafficBytes())
}

// npuUnsupportedLayers returns the indices of m's layers whose operator
// kind the NPU cannot execute.
func npuUnsupportedLayers(m *Model) []int {
	var out []int
	for i, l := range m.Layers {
		if !l.Kind.NPUSupported() {
			out = append(out, i)
		}
	}
	return out
}
