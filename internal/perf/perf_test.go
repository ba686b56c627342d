package perf

import (
	"testing"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/soc"
)

func bigCore(t *testing.T) *soc.Processor {
	t.Helper()
	k := soc.Kirin990()
	p := k.Processor("cpu-big")
	if p == nil {
		t.Fatal("Kirin990 missing cpu-big")
	}
	return p
}

func TestCountersInRange(t *testing.T) {
	p := bigCore(t)
	for _, m := range model.All() {
		c := Profile(p, m)
		if c.IPC < ipcMin || c.IPC > ipcMax {
			t.Errorf("%s: IPC %.2f outside [%g, %g]", m.Name, c.IPC, ipcMin, ipcMax)
		}
		if c.CacheMissRate < missBase || c.CacheMissRate > missPeak {
			t.Errorf("%s: miss rate %.2f outside [%g, %g]", m.Name, c.CacheMissRate, missBase, missPeak)
		}
		if c.StalledBackend < stallBase || c.StalledBackend > stallPeak {
			t.Errorf("%s: stall %.2f outside [%g, %g]", m.Name, c.StalledBackend, stallBase, stallPeak)
		}
	}
}

// TestCounterDirections verifies the qualitative relationships Fig. 2(b)
// relies on: memory-hungry models show lower IPC, higher miss and stall
// rates than compute-dense ones.
func TestCounterDirections(t *testing.T) {
	p := bigCore(t)
	hungry := Profile(p, model.MustByName(model.MobileNetV2)) // light, bandwidth-bound
	dense := Profile(p, model.MustByName(model.ViT))          // big matmuls, compute-dense here
	if hungry.IPC >= dense.IPC {
		t.Errorf("IPC(MobileNetV2)=%.2f not below IPC(ViT)=%.2f", hungry.IPC, dense.IPC)
	}
	if hungry.CacheMissRate <= dense.CacheMissRate {
		t.Errorf("miss(MobileNetV2)=%.2f not above miss(ViT)=%.2f", hungry.CacheMissRate, dense.CacheMissRate)
	}
	if hungry.StalledBackend <= dense.StalledBackend {
		t.Errorf("stall(MobileNetV2)=%.2f not above stall(ViT)=%.2f", hungry.StalledBackend, dense.StalledBackend)
	}
}

// TestCountersCorrelateWithEachOther: across the zoo, IPC must anti-correlate
// with the stall fraction — both are functions of memory pressure, which is
// what lets a linear regression on them predict contention intensity.
func TestCountersAntiCorrelate(t *testing.T) {
	p := bigCore(t)
	var ipcs, stalls []float64
	for _, m := range model.All() {
		c := Profile(p, m)
		ipcs = append(ipcs, c.IPC)
		stalls = append(stalls, c.StalledBackend)
	}
	if r := pearson(ipcs, stalls); r > -0.9 {
		t.Errorf("corr(IPC, stall) = %.3f, want strong anti-correlation", r)
	}
}

func TestFeatureVector(t *testing.T) {
	c := Counters{IPC: 2.5, CacheMissRate: 0.1, StalledBackend: 0.3}
	v := c.FeatureVector()
	if len(v) != 3 || v[0] != 2.5 || v[1] != 0.1 || v[2] != 0.3 {
		t.Errorf("FeatureVector() = %v", v)
	}
}

func TestProfileSkipsUnsupported(t *testing.T) {
	k := soc.Kirin990()
	npu := k.Processor("npu")
	// BERT on the NPU: unsupported layers are skipped; the remaining
	// (supported) layers still produce in-range counters.
	c := Profile(npu, model.MustByName(model.BERT))
	if c.IPC < ipcMin || c.IPC > ipcMax {
		t.Errorf("IPC %.2f outside range for partially-supported profile", c.IPC)
	}
}

func pearson(x, y []float64) float64 {
	n := float64(len(x))
	var sx, sy float64
	for i := range x {
		sx += x[i]
		sy += y[i]
	}
	mx, my := sx/n, sy/n
	var cov, vx, vy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		cov += dx * dy
		vx += dx * dx
		vy += dy * dy
	}
	if vx == 0 || vy == 0 {
		return 0
	}
	return cov / (sqrt(vx) * sqrt(vy))
}

func sqrt(v float64) float64 {
	if v <= 0 {
		return 0
	}
	x := v
	for i := 0; i < 40; i++ {
		x = (x + v/x) / 2
	}
	return x
}
