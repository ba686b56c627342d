package profile

import (
	"fmt"
	"testing"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/soc"
)

// TestReassembleReference pins partial re-assembly against a cold build:
// for every preset, zoo model, stale processor q and state of q (nominal,
// throttled 1.5×, offline, at half frequency), a profile re-assembled over
// the pre-event Base with only slot q re-measured must answer every
// ExecTime, SliceTime, CopyInTime, Footprint, MemoryBytes and Supported
// query bit-identically to New on an identically degraded SoC. It must
// share the pre-event profile's Base and the K−1 fresh tables rather than
// rebuild them.
func TestReassembleReference(t *testing.T) {
	states := []struct {
		name   string
		events func(proc string) []soc.Event
	}{
		{"nominal", func(string) []soc.Event { return nil }},
		{"throttled", func(p string) []soc.Event {
			return []soc.Event{{Kind: soc.EventThermalThrottle, Processor: p, Factor: 1.5}}
		}},
		{"offline", func(p string) []soc.Event { return []soc.Event{{Kind: soc.EventProcessorOffline, Processor: p}} }},
		{"freq", func(p string) []soc.Event {
			return []soc.Event{{Kind: soc.EventFrequencyScale, Processor: p, Factor: 0.5}}
		}},
	}
	apply := func(s *soc.SoC, evs []soc.Event) {
		t.Helper()
		for _, ev := range evs {
			if _, err := s.Apply(ev); err != nil {
				t.Fatal(err)
			}
		}
	}
	presets := soc.AllPresets()
	for pi := range presets {
		for _, name := range model.Names() {
			m := model.MustByName(name)
			for q := range presets[pi].Processors {
				for _, st := range states {
					s := soc.AllPresets()[pi]
					base, err := NewBase(s, m)
					if err != nil {
						t.Fatal(err)
					}
					before, err := base.Assemble(nil)
					if err != nil {
						t.Fatal(err)
					}
					evs := st.events(s.Processors[q].ID)
					apply(s, evs)
					reuse := append([]*Table(nil), before.tables...)
					reuse[q] = nil
					got, err := base.Assemble(reuse)
					if err != nil {
						t.Fatal(err)
					}
					ref := soc.AllPresets()[pi]
					apply(ref, evs)
					want, err := New(ref, m)
					if err != nil {
						t.Fatal(err)
					}
					where := fmt.Sprintf("%s/%s/%s %s", s.Name, name, s.Processors[q].ID, st.name)
					if got.base != before.base {
						t.Fatalf("%s: re-assembly rebuilt the model-level half", where)
					}
					for k := range got.tables {
						if k != q && got.tables[k] != before.tables[k] {
							t.Fatalf("%s: re-assembly re-measured fresh slot %d", where, k)
						}
					}
					if diff := firstQueryDiff(got, want); diff != "" {
						t.Fatalf("%s: %s", where, diff)
					}
				}
			}
		}
	}
}

// firstQueryDiff compares every query two profiles of one model answer,
// over every processor and every range [i, j] with i ≤ j+1 plus the
// out-of-range starts, and describes the first difference ("" if none).
func firstQueryDiff(got, want *Profile) string {
	n := want.NumLayers()
	for i := -1; i <= n; i++ {
		if g, w := got.CopyInTime(i), want.CopyInTime(i); g != w {
			return fmt.Sprintf("CopyInTime(%d) = %v, want %v", i, g, w)
		}
	}
	for k := 0; k < want.NumProcessors(); k++ {
		for i := -1; i <= n; i++ {
			for j := i - 1; j <= n; j++ {
				if g, w := got.ExecTime(k, i, j), want.ExecTime(k, i, j); g != w {
					return fmt.Sprintf("ExecTime(%d, %d, %d) = %v, want %v", k, i, j, g, w)
				}
				if i >= 0 && i < n {
					if g, w := got.SliceTime(k, i, j), want.SliceTime(k, i, j); g != w {
						return fmt.Sprintf("SliceTime(%d, %d, %d) = %v, want %v", k, i, j, g, w)
					}
				}
				if g, w := got.Footprint(k, i, j), want.Footprint(k, i, j); g != w {
					return fmt.Sprintf("Footprint(%d, %d, %d) = %+v, want %+v", k, i, j, g, w)
				}
				if g, w := got.Table(k).Supported(i, j), want.Table(k).Supported(i, j); g != w {
					return fmt.Sprintf("Supported(%d, %d, %d) = %t, want %t", k, i, j, g, w)
				}
				if k == 0 {
					if g, w := got.MemoryBytes(i, j), want.MemoryBytes(i, j); g != w {
						return fmt.Sprintf("MemoryBytes(%d, %d) = %d, want %d", i, j, g, w)
					}
				}
			}
		}
	}
	return ""
}

// BenchmarkProfileReassemble measures the re-assembly a degradation event
// costs one model's cost-cache entry: YOLOv4 on the Kirin 990 with one
// stale slot (the throttled GPU) re-measured and the other tables shared.
func BenchmarkProfileReassemble(b *testing.B) {
	s := soc.Kirin990()
	m := model.MustByName(model.YOLOv4)
	base, err := NewBase(s, m)
	if err != nil {
		b.Fatal(err)
	}
	p, err := base.Assemble(nil)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := s.Apply(soc.Event{Kind: soc.EventThermalThrottle, Processor: "gpu", Factor: 1.5}); err != nil {
		b.Fatal(err)
	}
	reuse := append([]*Table(nil), p.tables...)
	reuse[2] = nil
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := base.Assemble(reuse); err != nil {
			b.Fatal(err)
		}
	}
}
