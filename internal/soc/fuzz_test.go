package soc

import (
	"math"
	"testing"
)

// FuzzParseEvents feeds arbitrary event lists to the parser. It must never
// panic, and every event it returns must pass Validate, carry a finite
// factor when its kind takes one, and re-parse from its String form to an
// identical event.
func FuzzParseEvents(f *testing.F) {
	for _, seed := range []string{
		"offline:npu@40ms,throttle:gpu@10ms:1.8",
		"offline:npu@30ms,online:npu@60ms",
		"offline:npu@3ms,throttle:gpu@6ms:1.5",
		"online:npu@90ms, offline:npu@40ms, throttle:cpu-big@10ms:1.8, bus@20ms:0.6, freq:gpu@5ms:0.5",
		"throttle:cpu-big@1ms:1e500",
		"offline:npu@2562047h47m16.854775807s",
		"throttle:cpu-big@2562047h47m16.854775807s:1e308",
	} {
		f.Add(seed)
	}
	for _, spec := range nonFiniteSpecs {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, csv string) {
		events, err := ParseEvents(csv)
		if err != nil {
			return
		}
		for _, ev := range events {
			if err := ev.Validate(); err != nil {
				t.Fatalf("ParseEvents(%q) returned %+v, which fails Validate: %v", csv, ev, err)
			}
			switch ev.Kind {
			case EventThermalThrottle, EventFrequencyScale, EventBandwidthSqueeze:
				if math.IsNaN(ev.Factor) || math.IsInf(ev.Factor, 0) {
					t.Fatalf("ParseEvents(%q) returned %+v with a non-finite factor", csv, ev)
				}
			}
			back, err := ParseEvent(ev.String())
			if err != nil {
				t.Fatalf("ParseEvent(%q), the String of %+v: %v", ev.String(), ev, err)
			}
			if back != ev {
				t.Fatalf("ParseEvent(%q) = %+v, want %+v", ev.String(), back, ev)
			}
		}
	})
}
