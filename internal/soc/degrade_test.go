package soc

import (
	"math"
	"strings"
	"testing"
	"time"

	"hetero2pipe/internal/model"
)

func TestDegradationOfflineLayerTime(t *testing.T) {
	s := Kirin990()
	m := model.MustByName(model.SqueezeNet)
	big := s.Processor("cpu-big")
	if big.LayerTime(m.Layers[0]) == InfDuration {
		t.Fatal("nominal big CPU cannot run the first layer")
	}
	affected, err := s.Apply(Event{Kind: EventProcessorOffline, Processor: "cpu-big"})
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) != 1 || s.Processors[affected[0]].ID != "cpu-big" {
		t.Fatalf("affected = %v, want the big CPU's index", affected)
	}
	if big.LayerTime(m.Layers[0]) != InfDuration {
		t.Error("offline processor still reports finite layer time")
	}
	if big.Available() {
		t.Error("offline processor reports Available")
	}
	if _, err := s.Apply(Event{Kind: EventProcessorOnline, Processor: "cpu-big"}); err != nil {
		t.Fatal(err)
	}
	if big.LayerTime(m.Layers[0]) == InfDuration {
		t.Error("online event did not restore the processor")
	}
}

func TestDegradationThrottleAndFreqScaleLatency(t *testing.T) {
	s := Kirin990()
	m := model.MustByName(model.ResNet50)
	gpu := s.Processor("gpu")
	base := gpu.LayerTime(m.Layers[0])
	if _, err := s.Apply(Event{Kind: EventThermalThrottle, Processor: "gpu", Factor: 2}); err != nil {
		t.Fatal(err)
	}
	throttled := gpu.LayerTime(m.Layers[0])
	if got, want := throttled, 2*base; got < want-time.Nanosecond || got > want+time.Nanosecond {
		t.Errorf("throttled layer time %v, want ≈ %v", got, want)
	}
	// A frequency drop compounds: factor 2 throttle at half frequency = 4×.
	if _, err := s.Apply(Event{Kind: EventFrequencyScale, Processor: "gpu", Factor: 0.5}); err != nil {
		t.Fatal(err)
	}
	scaled := gpu.LayerTime(m.Layers[0])
	if got, want := scaled, 4*base; got < want-2*time.Nanosecond || got > want+2*time.Nanosecond {
		t.Errorf("throttled+scaled layer time %v, want ≈ %v", got, want)
	}
	// Clearing both restores the nominal time.
	if _, err := s.Apply(Event{Kind: EventThermalThrottle, Processor: "gpu", Factor: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(Event{Kind: EventFrequencyScale, Processor: "gpu", Factor: 1}); err != nil {
		t.Fatal(err)
	}
	if got := gpu.LayerTime(m.Layers[0]); got != base {
		t.Errorf("restored layer time %v, want %v", got, base)
	}
	// The degraded SoC still validates — degradation is legal runtime state.
	if err := s.Validate(); err != nil {
		t.Errorf("degraded SoC fails validation: %v", err)
	}
}

func TestDegradationBandwidthSqueeze(t *testing.T) {
	s := Kirin990()
	nominal := s.EffectiveBusBandwidthGBps()
	affected, err := s.Apply(Event{Kind: EventBandwidthSqueeze, Factor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(affected) != 0 {
		t.Errorf("bandwidth squeeze staled processor tables %v; solo tables are bus-independent", affected)
	}
	if got := s.EffectiveBusBandwidthGBps(); got != nominal/2 {
		t.Errorf("effective bus bandwidth %g, want %g", got, nominal/2)
	}
	if _, err := s.Apply(Event{Kind: EventBandwidthSqueeze, Factor: 1}); err != nil {
		t.Fatal(err)
	}
	if got := s.EffectiveBusBandwidthGBps(); got != nominal {
		t.Errorf("restored bus bandwidth %g, want %g", got, nominal)
	}
}

func TestDegradationEpochBumpsOnStateChange(t *testing.T) {
	s := Kirin990()
	if got := s.Epoch(); got != 0 {
		t.Fatalf("fresh SoC epoch = %d, want 0", got)
	}
	steps := []Event{
		{Kind: EventThermalThrottle, Processor: "gpu", Factor: 2},
		{Kind: EventFrequencyScale, Processor: "cpu-big", Factor: 0.5},
		{Kind: EventProcessorOffline, Processor: "npu"},
		{Kind: EventProcessorOnline, Processor: "npu"},
		{Kind: EventBandwidthSqueeze, Factor: 0.5},
	}
	for i, ev := range steps {
		if _, err := s.Apply(ev); err != nil {
			t.Fatal(err)
		}
		if got, want := s.Epoch(), uint64(i+1); got != want {
			t.Errorf("after %s: epoch = %d, want %d", ev.Kind, got, want)
		}
	}
}

// TestDegradationOnlineKeepsThrottle: an online event clears only Offline.
// A processor throttled and down-clocked before it flaps offline and back
// online keeps its throttle and DVFS state, and each of the four events
// bumps the epoch and stales that processor's tables.
func TestDegradationOnlineKeepsThrottle(t *testing.T) {
	s := Kirin990()
	m := model.MustByName(model.SqueezeNet)
	nominal := s.Processor("gpu").LayerTime(m.Layers[0])
	events, err := ParseEvents("throttle:gpu@1ms:2,freq:gpu@2ms:0.5,offline:gpu@3ms,online:gpu@4ms")
	if err != nil {
		t.Fatal(err)
	}
	gpu := -1
	for i := range s.Processors {
		if s.Processors[i].ID == "gpu" {
			gpu = i
		}
	}
	for i, ev := range events {
		affected, err := s.Apply(ev)
		if err != nil {
			t.Fatal(err)
		}
		if len(affected) != 1 || affected[0] != gpu {
			t.Errorf("%s: affected %v, want [%d]", ev, affected, gpu)
		}
		if got, want := s.Epoch(), uint64(i+1); got != want {
			t.Errorf("%s: epoch = %d, want %d", ev, got, want)
		}
	}
	d := s.Processor("gpu").Degrade
	if d.Offline || d.ThrottleFactor != 2 || d.FreqFraction != 0.5 {
		t.Errorf("after online: Degrade = %+v, want online with ThrottleFactor 2, FreqFraction 0.5", d)
	}
	if got := s.Processor("gpu").LayerTime(m.Layers[0]); got == InfDuration || got <= nominal {
		t.Errorf("after online: layer time %v, want finite and above nominal %v", got, nominal)
	}
}

func TestDegradationNoOpEventsKeepEpoch(t *testing.T) {
	s := Kirin990()
	// Events restating the nominal zero-value state: no bump, no staled
	// tables. Factor 1 must be recognised as the stored 0 ("nominal").
	noops := []Event{
		{Kind: EventProcessorOnline, Processor: "npu"},
		{Kind: EventThermalThrottle, Processor: "gpu", Factor: 1},
		{Kind: EventFrequencyScale, Processor: "cpu-big", Factor: 1},
		{Kind: EventBandwidthSqueeze, Factor: 1},
	}
	for _, ev := range noops {
		affected, err := s.Apply(ev)
		if err != nil {
			t.Fatal(err)
		}
		if len(affected) != 0 {
			t.Errorf("no-op %s staled tables %v", ev.Kind, affected)
		}
		if got := s.Epoch(); got != 0 {
			t.Errorf("no-op %s bumped epoch to %d", ev.Kind, got)
		}
	}
	// Re-asserting an already-active degradation is equally a no-op.
	if _, err := s.Apply(Event{Kind: EventThermalThrottle, Processor: "gpu", Factor: 1.5}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(Event{Kind: EventProcessorOffline, Processor: "npu"}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(Event{Kind: EventBandwidthSqueeze, Factor: 0.7}); err != nil {
		t.Fatal(err)
	}
	base := s.Epoch()
	repeats := []Event{
		{Kind: EventThermalThrottle, Processor: "gpu", Factor: 1.5},
		{Kind: EventProcessorOffline, Processor: "npu"},
		{Kind: EventBandwidthSqueeze, Factor: 0.7},
	}
	for _, ev := range repeats {
		affected, err := s.Apply(ev)
		if err != nil {
			t.Fatal(err)
		}
		if len(affected) != 0 {
			t.Errorf("repeated %s staled tables %v", ev.Kind, affected)
		}
	}
	if got := s.Epoch(); got != base {
		t.Errorf("repeated events moved epoch %d → %d", base, got)
	}
}

func TestEventValidate(t *testing.T) {
	bad := []Event{
		{Kind: EventThermalThrottle, Processor: "gpu", Factor: 0.5},
		{Kind: EventFrequencyScale, Processor: "gpu", Factor: 1.5},
		{Kind: EventFrequencyScale, Processor: "gpu", Factor: 0},
		{Kind: EventBandwidthSqueeze, Factor: 2},
		{Kind: EventBandwidthSqueeze, Processor: "gpu", Factor: 0.5},
		{Kind: EventProcessorOffline},
		{Kind: EventKind(99), Processor: "gpu"},
		{Kind: EventProcessorOffline, Processor: "gpu", At: -time.Second},
	}
	for _, ev := range bad {
		if err := ev.Validate(); err == nil {
			t.Errorf("event %+v validated", ev)
		}
	}
	s := Kirin990()
	if _, err := s.Apply(Event{Kind: EventProcessorOffline, Processor: "no-such-unit"}); err == nil {
		t.Error("unknown processor accepted")
	}
}

// nonFiniteSpecs are event specs whose factor is not a finite number, or is
// one followed by junk. Each once parsed: NaN passes every range
// comparison, and a %g scan stops at the first byte that is not a number.
var nonFiniteSpecs = []string{
	"throttle:cpu-big@10ms:NaN",
	"throttle:cpu-big@10ms:+Inf",
	"throttle:cpu-big@10ms:inf",
	"freq:gpu@5ms:NaN",
	"bus@20ms:NaN",
	"throttle:cpu-big@10ms:2abc",
	"throttle:cpu-big@10ms:2 3",
}

// TestDegradationRejectsNonFiniteFactors: the parser, Event.Validate (and
// so Apply), Degradation.Validate and the SoC's bus-derate check each
// reject a NaN or infinite factor, and the parser rejects trailing junk.
func TestDegradationRejectsNonFiniteFactors(t *testing.T) {
	for _, spec := range nonFiniteSpecs {
		if evs, err := ParseEvents(spec); err == nil {
			t.Errorf("ParseEvents(%q) = %+v, want an error", spec, evs)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	s := Kirin990()
	for _, ev := range []Event{
		{Kind: EventThermalThrottle, Processor: "cpu-big", Factor: nan},
		{Kind: EventThermalThrottle, Processor: "cpu-big", Factor: inf},
		{Kind: EventFrequencyScale, Processor: "gpu", Factor: nan},
		{Kind: EventBandwidthSqueeze, Factor: nan},
	} {
		if _, err := s.Apply(ev); err == nil {
			t.Errorf("Apply(%+v) succeeded", ev)
		}
	}
	if s.Epoch() != 0 || s.Validate() != nil {
		t.Errorf("rejected events changed the SoC: epoch %d, Validate %v", s.Epoch(), s.Validate())
	}
	for _, d := range []Degradation{{ThrottleFactor: nan}, {ThrottleFactor: inf}, {FreqFraction: nan}} {
		if err := d.Validate(); err == nil {
			t.Errorf("%+v validated", d)
		}
	}
	bad := Kirin990()
	bad.BusDerate = nan
	if err := bad.Validate(); err == nil {
		t.Error("SoC with a NaN bus derate validated")
	}
}

func TestParseEvents(t *testing.T) {
	events, err := ParseEvents("online:npu@90ms, offline:npu@40ms, throttle:cpu-big@10ms:1.8, bus@20ms:0.6, freq:gpu@5ms:0.5")
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("parsed %d events, want 5", len(events))
	}
	// Sorted by firing time.
	for i := 1; i < len(events); i++ {
		if events[i].At < events[i-1].At {
			t.Fatalf("events not sorted: %v after %v", events[i].At, events[i-1].At)
		}
	}
	want := []Event{
		{At: 5 * time.Millisecond, Kind: EventFrequencyScale, Processor: "gpu", Factor: 0.5},
		{At: 10 * time.Millisecond, Kind: EventThermalThrottle, Processor: "cpu-big", Factor: 1.8},
		{At: 20 * time.Millisecond, Kind: EventBandwidthSqueeze, Factor: 0.6},
		{At: 40 * time.Millisecond, Kind: EventProcessorOffline, Processor: "npu"},
		{At: 90 * time.Millisecond, Kind: EventProcessorOnline, Processor: "npu"},
	}
	for i, ev := range events {
		if ev != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, ev, want[i])
		}
	}
	// Round trip through String.
	for _, ev := range events {
		back, err := ParseEvent(ev.String())
		if err != nil {
			t.Errorf("re-parsing %q: %v", ev.String(), err)
		} else if back != ev {
			t.Errorf("round trip %q → %+v, want %+v", ev.String(), back, ev)
		}
	}
	for _, bad := range []string{"offline:npu", "warp:npu@1ms", "bus@x:0.5", "throttle:gpu@1ms", "offline:npu@1ms:2"} {
		if _, err := ParseEvents(bad); err == nil {
			t.Errorf("spec %q parsed", bad)
		}
	}
	if evs, err := ParseEvents("  "); err != nil || evs != nil {
		t.Errorf("blank spec: %v, %v", evs, err)
	}
	if !strings.Contains(Event{Kind: EventProcessorOffline, Processor: "npu", At: time.Millisecond}.String(), "offline:npu@1ms") {
		t.Error("String grammar drifted")
	}
}
