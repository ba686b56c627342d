package soc

import (
	"testing"
	"testing/quick"
	"time"

	"hetero2pipe/internal/model"
)

func soloModelTime(p *Processor, m *model.Model) time.Duration {
	var sum time.Duration
	for _, l := range m.Layers {
		t := p.LayerTime(l)
		if t == InfDuration {
			return InfDuration
		}
		sum += t
	}
	return sum + p.LaunchOverhead
}

func TestPresetsValidate(t *testing.T) {
	for _, s := range append(Presets(), DesktopCUDA()) {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: Validate() = %v", s.Name, err)
		}
	}
}

func TestPresetByName(t *testing.T) {
	for _, name := range []string{"Kirin990", "Snapdragon778G", "Snapdragon870", "DesktopCUDA"} {
		if PresetByName(name) == nil {
			t.Errorf("PresetByName(%q) = nil", name)
		}
	}
	if PresetByName("nope") != nil {
		t.Error("PresetByName(nope) != nil")
	}
}

// TestCapabilityOrdering pins the paper's processor ranking
// NPU ≫ CPU_B ≥ GPU ≫ CPU_S for a fully NPU-supported conv network.
func TestCapabilityOrdering(t *testing.T) {
	m := model.MustByName(model.ResNet50)
	for _, s := range Presets() {
		timeOf := func(kind Kind) time.Duration {
			idx := s.ProcessorsOfKind(kind)
			if len(idx) == 0 {
				t.Fatalf("%s: no processor of kind %v", s.Name, kind)
			}
			return soloModelTime(&s.Processors[idx[0]], m)
		}
		npu, big, gpu, small := timeOf(KindNPU), timeOf(KindCPUBig), timeOf(KindGPU), timeOf(KindCPUSmall)
		if !(npu < big && npu < gpu) {
			t.Errorf("%s: NPU %v not fastest (big %v, gpu %v)", s.Name, npu, big, gpu)
		}
		if !(small > big && small > gpu) {
			t.Errorf("%s: CPU_S %v not slowest (big %v, gpu %v)", s.Name, small, big, gpu)
		}
		// Big and GPU on par: within ~3× of each other.
		ratio := float64(big) / float64(gpu)
		if ratio < 1.0/3 || ratio > 3 {
			t.Errorf("%s: CPU_B/GPU ratio %.2f not on par", s.Name, ratio)
		}
	}
}

// TestCalibrationAnchors checks the paper's absolute anchor points within
// loose bands.
func TestCalibrationAnchors(t *testing.T) {
	// MobileNetV2 near 76 FPS on the 778G big cluster (paper intro).
	sd := Snapdragon778G()
	big := &sd.Processors[sd.ProcessorsOfKind(KindCPUBig)[0]]
	mb := soloModelTime(big, model.MustByName(model.MobileNetV2))
	if mb < 4*time.Millisecond || mb > 80*time.Millisecond {
		t.Errorf("MobileNetV2 on 778G CPU_B = %v, want 4–80 ms", mb)
	}
	// ResNet50 above 100 FPS on the Kirin 990 NPU (paper intro).
	k := Kirin990()
	npu := &k.Processors[k.ProcessorsOfKind(KindNPU)[0]]
	rn := soloModelTime(npu, model.MustByName(model.ResNet50))
	if rn > 12*time.Millisecond {
		t.Errorf("ResNet50 on Kirin990 NPU = %v, want ≤ 12 ms (>100 FPS with margin)", rn)
	}
	// BERT on the Kirin big cluster in the hundreds of milliseconds
	// (Table II: 553.91 ms).
	bigK := &k.Processors[k.ProcessorsOfKind(KindCPUBig)[0]]
	bt := soloModelTime(bigK, model.MustByName(model.BERT))
	if bt < 100*time.Millisecond || bt > 2*time.Second {
		t.Errorf("BERT on Kirin990 CPU_B = %v, want 0.1–2 s", bt)
	}
}

func TestNPUUnsupportedIsInf(t *testing.T) {
	k := Kirin990()
	npu := &k.Processors[k.ProcessorsOfKind(KindNPU)[0]]
	for _, name := range []string{model.BERT, model.YOLOv4, model.ViT} {
		if got := soloModelTime(npu, model.MustByName(name)); got != InfDuration {
			t.Errorf("%s on NPU = %v, want InfDuration (unsupported operators)", name, got)
		}
	}
	for _, name := range []string{model.ResNet50, model.VGG16, model.SqueezeNet} {
		if got := soloModelTime(npu, model.MustByName(name)); got == InfDuration {
			t.Errorf("%s on NPU unsupported, want supported", name)
		}
	}
}

func TestLayerTimePositive(t *testing.T) {
	k := Kirin990()
	big := &k.Processors[k.ProcessorsOfKind(KindCPUBig)[0]]
	for _, m := range model.All() {
		for _, l := range m.Layers {
			if lt := big.LayerTime(l); lt <= 0 {
				t.Fatalf("%s/%s: LayerTime = %v, want > 0", m.Name, l.Name, lt)
			}
		}
	}
}

// Property: layer time scales monotonically with FLOPs for compute-bound
// layers of the same shape.
func TestLayerTimeMonotoneInFLOPs(t *testing.T) {
	k := Kirin990()
	big := &k.Processors[k.ProcessorsOfKind(KindCPUBig)[0]]
	prop := func(a, b uint32) bool {
		fa, fb := float64(a%1_000_000)+1, float64(b%1_000_000)+1
		la := model.Layer{Name: "a", Kind: model.OpConv, FLOPs: fa * 1e3, InputBytes: 1024, OutputBytes: 1024, WorkingSetBytes: 1024}
		lb := la
		lb.FLOPs = fb * 1e3
		ta, tb := big.LayerTime(la), big.LayerTime(lb)
		if fa < fb {
			return ta <= tb
		}
		return ta >= tb
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestBusTrafficDedicatedPath(t *testing.T) {
	l := model.Layer{Name: "x", Kind: model.OpConv, InputBytes: 1 << 20, OutputBytes: 1 << 20, WeightBytes: 1 << 20, WorkingSetBytes: 64 << 20}
	withPath := Processor{DedicatedMemPath: 0.75, L2Bytes: 1 << 20}
	without := Processor{DedicatedMemPath: 0, L2Bytes: 1 << 20}
	if got, want := withPath.BusTrafficBytes(l), without.BusTrafficBytes(l)*0.25; got != want {
		t.Errorf("BusTrafficBytes with dedicated path = %g, want %g", got, want)
	}
}

func TestBusTrafficWeightLocality(t *testing.T) {
	p := Processor{L2Bytes: 1 << 20}
	resident := model.Layer{Name: "x", Kind: model.OpConv, InputBytes: 1 << 10, OutputBytes: 1 << 10, WeightBytes: 1 << 19, WorkingSetBytes: 1 << 19}
	spilled := resident
	spilled.WorkingSetBytes = 8 << 20
	if got, want := p.BusTrafficBytes(resident), p.BusTrafficBytes(spilled); got >= want {
		t.Errorf("resident weight traffic %g not below spilled %g", got, want)
	}
	// Activations count in full either way: zero-weight layers see no
	// locality discount.
	stream := model.Layer{Name: "s", Kind: model.OpActivation, InputBytes: 1 << 20, OutputBytes: 1 << 20}
	if got := p.BusTrafficBytes(stream); got < float64(stream.InputBytes+stream.OutputBytes) {
		t.Errorf("streaming traffic %g below raw activation bytes", got)
	}
}

func TestThermal(t *testing.T) {
	th := cpuThermal()
	if th.SteadyStateFactor() <= 1 {
		t.Errorf("CPU steady-state factor = %g, want > 1", th.SteadyStateFactor())
	}
	if f := acceleratorThermal().SteadyStateFactor(); f != 1 {
		t.Errorf("accelerator steady-state factor = %g, want 1", f)
	}
	// Temperature rises monotonically toward steady state.
	prev := th.TempAt(0)
	for _, s := range []float64{10, 30, 60, 120, 600} {
		cur := th.TempAt(s)
		if cur < prev {
			t.Errorf("TempAt(%g) = %g < TempAt(prev) = %g", s, cur, prev)
		}
		prev = cur
	}
	if prev > th.SteadyC+0.1 {
		t.Errorf("TempAt(600) = %g exceeds steady %g", prev, th.SteadyC)
	}
	if f := th.FactorAt(th.AmbientC); f != 1 {
		t.Errorf("FactorAt(ambient) = %g, want 1", f)
	}
	if zero := (Thermal{}); zero.SteadyStateFactor() != 1 {
		t.Error("zero-value Thermal must not throttle")
	}
}

func TestCopyTime(t *testing.T) {
	s := Kirin990()
	if got := s.CopyTime(0); got != 0 {
		t.Errorf("CopyTime(0) = %v, want 0", got)
	}
	small, big := s.CopyTime(1<<10), s.CopyTime(1<<24)
	if small >= big {
		t.Errorf("CopyTime not monotone: %v >= %v", small, big)
	}
	if small < s.CopyLatency {
		t.Errorf("CopyTime(1KiB) = %v below fixed latency %v", small, s.CopyLatency)
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	good := Kirin990()
	mutations := []func(*SoC){
		func(s *SoC) { s.Name = "" },
		func(s *SoC) { s.Processors = nil },
		func(s *SoC) { s.Processors[1].ID = s.Processors[0].ID },
		func(s *SoC) { s.BusBandwidthGBps = 0 },
		func(s *SoC) { s.CopyBandwidthGBps = -1 },
		func(s *SoC) { s.MemoryCapacityBytes = 0 },
		func(s *SoC) { s.MemFreqLevelsMHz = []int{800, 800} },
		func(s *SoC) { s.Processors[0].PeakGFLOPS = 0 },
		func(s *SoC) { s.Processors[0].DefaultEfficiency = 2 },
		func(s *SoC) { s.Processors[0].Cores = 0 },
		func(s *SoC) { s.Processors[0].DedicatedMemPath = 1.5 },
		func(s *SoC) { s.Processors[0].Efficiency[model.OpConv] = 0 },
	}
	for i, mutate := range mutations {
		s := Kirin990()
		mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("mutation %d: Validate() = nil, want error", i)
		}
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("pristine preset invalid: %v", err)
	}
}

func TestProcessorLookup(t *testing.T) {
	s := Kirin990()
	if p := s.Processor("cpu-big"); p == nil || p.Kind != KindCPUBig {
		t.Error("Processor(cpu-big) lookup failed")
	}
	if p := s.Processor("nope"); p != nil {
		t.Error("Processor(nope) != nil")
	}
	if len(s.ProcessorsOfKind(KindNPU)) == 0 {
		t.Error("Kirin990 should have an NPU")
	}
}

func TestBatchAffineOnMobile(t *testing.T) {
	s := Kirin990()
	big := &s.Processors[s.ProcessorsOfKind(KindCPUBig)[0]]
	m := model.MustByName(model.MobileNetV2)
	// Affine: marginal cost is constant for n ≥ 2.
	c := NewBatchCurve(big, m)
	m2 := c.Latency(2) - c.Latency(1)
	for n := 3; n <= 16; n++ {
		mn := c.Latency(n) - c.Latency(n-1)
		diff := float64(mn-m2) / float64(m2)
		if diff < -0.01 || diff > 0.01 {
			t.Errorf("marginal cost at batch %d = %v deviates from %v", n, mn, m2)
		}
	}
	// Batch 1 pays the fixed weight-load + launch cost on top.
	if b1 := BatchLatency(big, m, 1); b1 <= m2 {
		t.Errorf("BatchLatency(1) = %v not above per-sample marginal %v", b1, m2)
	}
}

func TestBatchSublinearOnCUDA(t *testing.T) {
	s := DesktopCUDA()
	cuda := &s.Processors[0]
	m := model.MustByName(model.MobileNetV2)
	lat1 := BatchLatency(cuda, m, 1)
	lat4 := BatchLatency(cuda, m, 4)
	if float64(lat4) >= 4*float64(lat1) {
		t.Errorf("CUDA batching not sub-linear: lat(4)=%v, 4·lat(1)=%v", lat4, 4*lat1)
	}
}

func TestBatchUnsupported(t *testing.T) {
	k := Kirin990()
	npu := &k.Processors[k.ProcessorsOfKind(KindNPU)[0]]
	if got := BatchLatency(npu, model.MustByName(model.BERT), 4); got != InfDuration {
		t.Errorf("BatchLatency(NPU, BERT) = %v, want InfDuration", got)
	}
}

func TestAlignmentBatch(t *testing.T) {
	s := Kirin990()
	big := &s.Processors[s.ProcessorsOfKind(KindCPUBig)[0]]
	light := model.MustByName(model.SqueezeNet)
	heavy := soloModelTime(big, model.MustByName(model.BERT))
	n := AlignmentBatch(big, light, heavy, 64)
	if n < 2 {
		t.Errorf("AlignmentBatch = %d, want ≥ 2 (20–40× light/heavy gap)", n)
	}
	if got := BatchLatency(big, light, n); got < heavy && n < 64 {
		t.Errorf("batch %d latency %v below target %v", n, got, heavy)
	}
	if got := AlignmentBatch(big, light, time.Nanosecond, 64); got != 1 {
		t.Errorf("AlignmentBatch(tiny target) = %d, want 1", got)
	}
}

func TestKindString(t *testing.T) {
	if KindNPU.String() != "NPU" || KindCPUBig.String() != "CPU_B" {
		t.Error("Kind.String mismatch")
	}
	if Kind(42).String() != "Kind(42)" {
		t.Errorf("Kind(42).String() = %q", Kind(42).String())
	}
}

func TestExtraPresetsValidate(t *testing.T) {
	for _, s := range AllPresets() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: Validate() = %v", s.Name, err)
		}
	}
	for _, name := range []string{"Snapdragon8Gen2", "Dimensity9200"} {
		if PresetByName(name) == nil {
			t.Errorf("PresetByName(%q) = nil", name)
		}
	}
	// The flagship NPUs outclass the evaluation trio's.
	k990 := Kirin990().Processor("npu")
	for _, name := range []string{"Snapdragon8Gen2", "Dimensity9200"} {
		p := PresetByName(name).Processor("npu")
		if p.PeakGFLOPS <= k990.PeakGFLOPS {
			t.Errorf("%s NPU peak %.0f not above Kirin990's %.0f", name, p.PeakGFLOPS, k990.PeakGFLOPS)
		}
	}
}

func TestPowerDefaults(t *testing.T) {
	s := Kirin990()
	for i := range s.Processors {
		p := &s.Processors[i]
		pw := p.PowerOf()
		if pw.BusyWatts <= 0 || pw.IdleWatts <= 0 || pw.IdleWatts >= pw.BusyWatts {
			t.Errorf("%s: implausible power %+v", p.ID, pw)
		}
	}
	// Explicit power overrides the class default.
	custom := Processor{Kind: KindGPU, Power: Power{BusyWatts: 9, IdleWatts: 1}}
	if got := custom.PowerOf(); got.BusyWatts != 9 {
		t.Errorf("explicit power ignored: %+v", got)
	}
	if e := custom.EnergyJoules(2*time.Second, time.Second); e != 19 {
		t.Errorf("EnergyJoules = %g, want 19", e)
	}
	// Big cores cost more per second than the NPU (the energy story).
	if defaultPower(KindCPUBig).BusyWatts <= defaultPower(KindNPU).BusyWatts {
		t.Error("CPU big busy power not above NPU's")
	}
}
