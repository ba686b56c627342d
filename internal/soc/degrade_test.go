package soc

import (
	"math"
	"math/rand"
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

// TestDegradationStateChangesIdentity: the nominal state's identity is
// empty, every state-changing event (bus squeezes included) moves the SoC
// to an identity it has not had, and walking the events back restores
// each earlier identity exactly. A factor written as 1 and the nominal 0
// are one state.
func TestDegradationStateChangesIdentity(t *testing.T) {
	s := Kirin990()
	if got := s.State(); got != "" {
		t.Fatalf("fresh SoC state identity = %q, want empty", got)
	}
	steps := []struct{ ev, undo Event }{
		{Event{Kind: EventThermalThrottle, Processor: "gpu", Factor: 2}, Event{Kind: EventThermalThrottle, Processor: "gpu", Factor: 1}},
		{Event{Kind: EventFrequencyScale, Processor: "cpu-big", Factor: 0.5}, Event{Kind: EventFrequencyScale, Processor: "cpu-big", Factor: 1}},
		{Event{Kind: EventProcessorOffline, Processor: "npu"}, Event{Kind: EventProcessorOnline, Processor: "npu"}},
		{Event{Kind: EventThermalThrottle, Processor: "npu", Factor: 1.5}, Event{Kind: EventThermalThrottle, Processor: "npu", Factor: 1}},
		{Event{Kind: EventBandwidthSqueeze, Factor: 0.5}, Event{Kind: EventBandwidthSqueeze, Factor: 1}},
	}
	seen := map[string]int{"": 0}
	trail := []string{""}
	for i, st := range steps {
		if _, err := s.Apply(st.ev); err != nil {
			t.Fatal(err)
		}
		id := s.State()
		if j, ok := seen[id]; ok {
			t.Errorf("after %s: identity %q repeats the one after step %d", st.ev, id, j)
		}
		if got := string(s.AppendState([]byte("x"))); got != "x"+id {
			t.Errorf("after %s: AppendState appended %q, State is %q", st.ev, got[1:], id)
		}
		seen[id] = i + 1
		trail = append(trail, id)
	}
	for i := len(steps) - 1; i >= 0; i-- {
		if _, err := s.Apply(steps[i].undo); err != nil {
			t.Fatal(err)
		}
		if got, want := s.State(), trail[i]; got != want {
			t.Errorf("after undoing %s: identity %q, want the earlier %q", steps[i].ev, got, want)
		}
	}
	s.Processors[0].Degrade = Degradation{ThrottleFactor: 1, FreqFraction: 1}
	if got := s.State(); got != "" {
		t.Errorf("factors written as 1: identity %q, want the nominal empty one", got)
	}
}

// TestDegradationStateIdentityExact draws pairs of SoC states in which each
// processor is nominal half the time, spelled with 0 or 1, and otherwise in
// one of a few derated states, so that equal states recur under different
// spellings and equal derated states recur on different processors. The two
// identities must be equal exactly when every processor's canonical state
// and the bus derate are: a collision would let a plan memoized in one
// state serve another.
func TestDegradationStateIdentityExact(t *testing.T) {
	rng := rand.New(rand.NewSource(20261019))
	derated := []Degradation{
		{Offline: true},
		{ThrottleFactor: 1.5},
		{FreqFraction: 0.5},
		{ThrottleFactor: 2, FreqFraction: 0.5},
		{Offline: true, ThrottleFactor: 1.5},
	}
	draw := func() *SoC {
		s := Kirin990()
		for i := range s.Processors {
			d := Degradation{ThrottleFactor: float64(rng.Intn(2)), FreqFraction: float64(rng.Intn(2))}
			if rng.Intn(2) == 0 {
				d = derated[rng.Intn(len(derated))]
			}
			s.Processors[i].Degrade = d
		}
		s.BusDerate = []float64{0, 1, 0.6}[rng.Intn(3)]
		return s
	}
	same := func(a, b *SoC) bool {
		for i := range a.Processors {
			if a.Processors[i].Degrade.Canonical() != b.Processors[i].Degrade.Canonical() {
				return false
			}
		}
		return nominalFactor(a.BusDerate) == nominalFactor(b.BusDerate)
	}
	equal := 0
	for i := 0; i < 20000; i++ {
		a, b := draw(), draw()
		if got, want := a.State() == b.State(), same(a, b); got != want {
			t.Fatalf("pair %d: identities %q and %q equal %t, states equal %t", i, a.State(), b.State(), got, want)
		}
		if same(a, b) {
			equal++
		}
	}
	if equal < 30 {
		t.Fatalf("only %d of 20000 pairs drew equal states", equal)
	}
}

// TestDegradationOnlineKeepsThrottle: an online event clears only Offline.
// A processor throttled and down-clocked before it flaps offline and back
// online keeps its throttle and DVFS state, and each of the four events
// moves the state identity and stales that processor's tables.
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
	prev := s.State()
	for _, ev := range events {
		affected, err := s.Apply(ev)
		if err != nil {
			t.Fatal(err)
		}
		if len(affected) != 1 || affected[0] != gpu {
			t.Errorf("%s: affected %v, want [%d]", ev, affected, gpu)
		}
		if got := s.State(); got == prev {
			t.Errorf("%s: state identity stayed %q", ev, got)
		}
		prev = s.State()
	}
	d := s.Processor("gpu").Degrade
	if d.Offline || d.ThrottleFactor != 2 || d.FreqFraction != 0.5 {
		t.Errorf("after online: Degrade = %+v, want online with ThrottleFactor 2, FreqFraction 0.5", d)
	}
	if got := s.Processor("gpu").LayerTime(m.Layers[0]); got == InfDuration || got <= nominal {
		t.Errorf("after online: layer time %v, want finite and above nominal %v", got, nominal)
	}
}

// TestDegradationNoOpEventsKeepState: events that restate the current
// state stale no tables and keep the state identity.
func TestDegradationNoOpEventsKeepState(t *testing.T) {
	s := Kirin990()
	// Events restating the nominal zero-value state: no change, no staled
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
		if got := s.State(); got != "" {
			t.Errorf("no-op %s moved the nominal state identity to %q", ev.Kind, got)
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
	base := s.State()
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
	if got := s.State(); got != base {
		t.Errorf("repeated events moved the state identity %q → %q", base, got)
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
	if s.State() != "" || s.Validate() != nil {
		t.Errorf("rejected events changed the SoC: state %q, Validate %v", s.State(), s.Validate())
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

// TestDegradationNominal walks the SoC out of its nominal state and back by
// each event kind: a factor set back to 1 is nominal like the zero value,
// so the state identity returns to the nominal state's empty one exactly
// when every processor and the bus are back.
func TestDegradationNominal(t *testing.T) {
	s := Kirin990()
	for i, step := range []struct {
		ev      Event
		nominal bool
	}{
		{Event{Kind: EventBandwidthSqueeze, Factor: 0.5}, false},
		{Event{Kind: EventBandwidthSqueeze, Factor: 1}, true},
		{Event{Kind: EventThermalThrottle, Processor: "gpu", Factor: 1.5}, false},
		{Event{Kind: EventThermalThrottle, Processor: "gpu", Factor: 1}, true},
		{Event{Kind: EventProcessorOffline, Processor: "npu"}, false},
		{Event{Kind: EventFrequencyScale, Processor: "npu", Factor: 0.5}, false},
		{Event{Kind: EventProcessorOnline, Processor: "npu"}, false},
		{Event{Kind: EventFrequencyScale, Processor: "npu", Factor: 1}, true},
	} {
		if _, err := s.Apply(step.ev); err != nil {
			t.Fatal(err)
		}
		if got := s.State() == ""; got != step.nominal {
			t.Errorf("step %d after %s: identity %q, nominal %t, want %t", i, step.ev, s.State(), got, step.nominal)
		}
	}
}

// TestDegradationRejectsNonFiniteLatency: a state whose combined latency
// factor overflows is rejected wherever a state is checked. The parser and
// Event.Validate reject a frequency fraction without a finite reciprocal,
// Degradation.Validate (and so SoC.Validate) a non-finite LatencyFactor,
// and Apply an event that would produce one, leaving the SoC unchanged.
func TestDegradationRejectsNonFiniteLatency(t *testing.T) {
	const subnormal = "freq:cpu-big@1ms:5e-324"
	if evs, err := ParseEvents(subnormal); err == nil {
		t.Errorf("ParseEvents(%q) = %+v, want an error", subnormal, evs)
	}
	if err := (Event{Kind: EventFrequencyScale, Processor: "cpu-big", Factor: 5e-324}).Validate(); err == nil {
		t.Error("a subnormal frequency fraction validated")
	}
	overflow := Degradation{ThrottleFactor: 1e300, FreqFraction: 1e-10}
	if err := overflow.Validate(); err == nil {
		t.Errorf("%+v (latency factor %g) validated", overflow, overflow.LatencyFactor())
	}
	bad := Kirin990()
	bad.Processors[1].Degrade = overflow
	if err := bad.Validate(); err == nil {
		t.Error("SoC with an overflowing latency factor validated")
	}

	s := Kirin990()
	if _, err := s.Apply(Event{Kind: EventThermalThrottle, Processor: "cpu-big", Factor: 1e300}); err != nil {
		t.Fatal(err)
	}
	before, state := s.Processors[1].Degrade, s.State()
	if aff, err := s.Apply(Event{Kind: EventFrequencyScale, Processor: "cpu-big", Factor: 1e-10}); err == nil {
		t.Errorf("Apply of an overflowing DVFS step succeeded, affected %v", aff)
	}
	if s.Processors[1].Degrade != before || s.State() != state {
		t.Errorf("rejected event changed the SoC: %+v state %q, want %+v state %q",
			s.Processors[1].Degrade, s.State(), before, state)
	}
	if err := s.Validate(); err != nil {
		t.Errorf("SoC invalid after a rejected event: %v", err)
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
