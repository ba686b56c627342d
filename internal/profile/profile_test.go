package profile

import (
	"testing"
	"testing/quick"
	"time"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/soc"
)

func newProfile(t *testing.T, modelName string) *Profile {
	t.Helper()
	p, err := New(soc.Kirin990(), model.MustByName(modelName))
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return p
}

func TestNewRejectsInvalid(t *testing.T) {
	bad := soc.Kirin990()
	bad.BusBandwidthGBps = 0
	if _, err := New(bad, model.MustByName(model.AlexNet)); err == nil {
		t.Error("invalid SoC: nil error")
	}
	m := model.MustByName(model.AlexNet).Clone()
	m.Layers[0].FLOPs = -1
	if _, err := New(soc.Kirin990(), m); err == nil {
		t.Error("invalid model: nil error")
	}
}

func TestExecTimeMatchesDirectSum(t *testing.T) {
	p := newProfile(t, model.ResNet50)
	m := p.Model()
	k := 1 // cpu-big
	proc := p.Table(k).Proc()
	for _, rng := range [][2]int{{0, 0}, {0, 5}, {3, 17}, {0, m.NumLayers() - 1}} {
		var want time.Duration
		for i := rng[0]; i <= rng[1]; i++ {
			want += proc.LayerTime(m.Layers[i])
		}
		if got := p.ExecTime(k, rng[0], rng[1]); got != want {
			t.Errorf("ExecTime(%d, %d) = %v, want %v", rng[0], rng[1], got, want)
		}
	}
}

func TestExecTimeBoundaries(t *testing.T) {
	p := newProfile(t, model.AlexNet)
	if got := p.ExecTime(1, 5, 4); got != 0 {
		t.Errorf("empty range = %v, want 0 (Property 2 boundary)", got)
	}
	if got := p.ExecTime(1, -1, 3); got != soc.InfDuration {
		t.Errorf("negative start = %v, want Inf", got)
	}
	if got := p.ExecTime(1, 0, p.NumLayers()); got != soc.InfDuration {
		t.Errorf("past end = %v, want Inf", got)
	}
}

// TestProperty2Monotonicity pins the paper's Property 2: shrinking a range
// from the left reduces cost; growing it to the right increases cost.
func TestProperty2Monotonicity(t *testing.T) {
	p := newProfile(t, model.VGG16)
	n := p.NumLayers()
	k := 1
	prop := func(a, b uint8) bool {
		i := int(a) % (n - 1)
		j := i + int(b)%(n-1-i)
		base := p.ExecTime(k, i, j)
		if p.ExecTime(k, i+1, j) >= base && j > i {
			return false
		}
		if j+1 < n && p.ExecTime(k, i, j+1) <= base {
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnsupportedRanges(t *testing.T) {
	p := newProfile(t, model.BERT)
	npuIdx := 0 // Kirin990 lists the NPU first
	if p.Table(npuIdx).Proc().Kind != soc.KindNPU {
		t.Fatal("expected NPU at index 0")
	}
	// BERT's embedding (layer 0) is NPU-unsupported.
	if p.ExecTime(npuIdx, 0, 0) != soc.InfDuration {
		t.Error("embedding on NPU should be Inf")
	}
	if p.Table(npuIdx).Supported(0, p.NumLayers()-1) {
		t.Error("whole BERT should be NPU-unsupported")
	}
	// There exist supported sub-ranges (residual adds, activations).
	found := false
	for i := 0; i < p.NumLayers(); i++ {
		if p.Table(npuIdx).Supported(i, i) {
			found = true
			break
		}
	}
	if !found {
		t.Error("no single BERT layer supported on NPU; expected some")
	}
	// CPU supports everything.
	if !p.Table(1).Supported(0, p.NumLayers()-1) {
		t.Error("CPU should support all of BERT")
	}
}

func TestSliceTimeIncludesOverheads(t *testing.T) {
	p := newProfile(t, model.ResNet50)
	k := 1
	exec := p.ExecTime(k, 0, 5)
	slice := p.SliceTime(k, 0, 5)
	if slice <= exec {
		t.Errorf("SliceTime %v not above ExecTime %v (copy + launch missing)", slice, exec)
	}
	if got := p.SliceTime(k, 5, 4); got != 0 {
		t.Errorf("empty SliceTime = %v, want 0", got)
	}
	if got := p.SliceTime(0, 0, p.NumLayers()-1); got == soc.InfDuration {
		t.Error("ResNet50 fully NPU-supported; SliceTime must be finite")
	}
}

func TestSliceTimeUnsupported(t *testing.T) {
	p := newProfile(t, model.YOLOv4)
	if got := p.SliceTime(0, 0, p.NumLayers()-1); got != soc.InfDuration {
		t.Errorf("YOLOv4 on NPU SliceTime = %v, want Inf", got)
	}
}

func TestFootprintMatchesContentionPackage(t *testing.T) {
	p := newProfile(t, model.SqueezeNet)
	k := 1
	fromProfile := p.Footprint(k, 0, p.NumLayers()-1)
	if fromProfile.DemandGBps <= 0 || fromProfile.Sensitivity <= 0 {
		t.Fatalf("footprint %+v not positive", fromProfile)
	}
	// Slice of an unsupported range yields a zero footprint.
	pb := newProfile(t, model.BERT)
	if fp := pb.Footprint(0, 0, pb.NumLayers()-1); fp.DemandGBps != 0 {
		t.Errorf("unsupported footprint = %+v, want zero", fp)
	}
}

func TestMemoryBytesMatchesModel(t *testing.T) {
	p := newProfile(t, model.GoogLeNet)
	m := p.Model()
	n := m.NumLayers()
	for _, rng := range [][2]int{{0, n - 1}, {0, 3}, {5, 20}, {n - 3, n - 1}} {
		want := sliceFootprintBytes(m, rng[0], rng[1])
		if got := p.MemoryBytes(rng[0], rng[1]); got != want {
			t.Errorf("MemoryBytes(%d, %d) = %d, want %d", rng[0], rng[1], got, want)
		}
	}
	if got := p.MemoryBytes(3, 2); got != 0 {
		t.Errorf("empty MemoryBytes = %d, want 0", got)
	}
}

// sliceFootprintBytes is TestMemoryBytesMatchesModel's reference: the
// resident memory of layers [from, to] of m, summed straight off the
// layers — weights plus double-buffered peak activation.
func sliceFootprintBytes(m *model.Model, from, to int) int64 {
	var weights, peak int64
	for i := from; i <= to; i++ {
		weights += m.Layers[i].WeightBytes
		peak = max(peak, m.Layers[i].OutputBytes, m.Layers[i].InputBytes)
	}
	return weights + 2*peak
}

func TestCopyInTime(t *testing.T) {
	p := newProfile(t, model.AlexNet)
	if got := p.CopyInTime(0); got <= 0 {
		t.Errorf("CopyInTime(0) = %v, want > 0", got)
	}
	if got := p.CopyInTime(-1); got != 0 {
		t.Errorf("CopyInTime(-1) = %v, want 0", got)
	}
}

func TestSparseMax(t *testing.T) {
	vals := []int64{3, 1, 4, 1, 5, 9, 2, 6}
	sm := newSparseMax(len(vals), func(i int) int64 { return vals[i] })
	cases := []struct {
		i, j int
		want int64
	}{
		{0, 0, 3}, {0, 7, 9}, {2, 4, 5}, {6, 7, 6}, {5, 5, 9}, {0, 3, 4},
	}
	for _, tc := range cases {
		if got := sm.Max(tc.i, tc.j); got != tc.want {
			t.Errorf("Max(%d, %d) = %d, want %d", tc.i, tc.j, got, tc.want)
		}
	}
}

// Property: sparse range-max always matches a linear scan.
func TestSparseMaxProperty(t *testing.T) {
	vals := make([]int64, 100)
	for i := range vals {
		vals[i] = int64((i * 7919) % 251)
	}
	sm := newSparseMax(len(vals), func(i int) int64 { return vals[i] })
	prop := func(a, b uint8) bool {
		i := int(a) % len(vals)
		j := i + int(b)%(len(vals)-i)
		var want int64
		for k := i; k <= j; k++ {
			if vals[k] > want {
				want = vals[k]
			}
		}
		return sm.Max(i, j) == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestAccessors(t *testing.T) {
	p := newProfile(t, model.AlexNet)
	if p.SoC().Name != "Kirin990" {
		t.Error("SoC accessor mismatch")
	}
	if p.Model().Name != model.AlexNet {
		t.Error("Model accessor mismatch")
	}
	if p.NumProcessors() != 4 {
		t.Errorf("NumProcessors = %d, want 4", p.NumProcessors())
	}
	if p.LayerTime(1, 0) != p.ExecTime(1, 0, 0) {
		t.Error("LayerTime != single-layer ExecTime")
	}
}
