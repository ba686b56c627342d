package soc

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Runtime degradation. The paper's online mode (Sec. V) assumes a stable
// SoC, but deployed devices throttle thermally, shed DVFS frequency steps,
// lose processors to higher-priority subsystems and see their memory bus
// squeezed by co-located workloads. This file models those transitions as
// discrete events on the stream scheduler's simulated clock: each event
// mutates the SoC description in place, and Apply reports exactly which
// processors' solo cost tables the mutation stales so the planner can
// invalidate those — and only those — memoized tables.

// Degradation is the runtime derating state of one processor, written by
// degradation events and folded into LayerTime. The zero value means the
// processor runs at its nominal description.
type Degradation struct {
	// Offline marks the processor unavailable: every layer becomes
	// unsupported (LayerTime returns InfDuration), so freshly measured cost
	// tables route all work to the surviving processors.
	Offline bool
	// ThrottleFactor is a thermal-throttle latency dilation (≥ 1) layered on
	// top of the steady-state Thermal model; 0 means none.
	ThrottleFactor float64
	// FreqFraction is the DVFS operating point as a fraction of nominal
	// frequency in (0, 1]; both compute and memory-path time scale by its
	// inverse. 0 means nominal.
	FreqFraction float64
}

// LatencyFactor returns the combined latency dilation of the current
// derating state (1 when nominal).
func (d Degradation) LatencyFactor() float64 {
	f := 1.0
	if d.ThrottleFactor > 0 {
		f *= d.ThrottleFactor
	}
	if d.FreqFraction > 0 {
		f /= d.FreqFraction
	}
	return f
}

// Validate reports the first configuration problem, or nil.
func (d Degradation) Validate() error {
	if !finite(d.ThrottleFactor) {
		return fmt.Errorf("throttle factor %g not finite", d.ThrottleFactor)
	}
	if d.ThrottleFactor != 0 && d.ThrottleFactor < 1 {
		return fmt.Errorf("throttle factor %g below 1", d.ThrottleFactor)
	}
	if d.FreqFraction != 0 && !(d.FreqFraction > 0 && d.FreqFraction <= 1) {
		return fmt.Errorf("frequency fraction %g outside (0,1]", d.FreqFraction)
	}
	// Each factor may be finite while their combination overflows.
	if f := d.LatencyFactor(); !finite(f) {
		return fmt.Errorf("latency factor %g not finite", f)
	}
	return nil
}

// finite reports whether f is neither NaN nor infinite. NaN fails every
// ordered comparison, so a range check alone lets it through.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// nominalFactor maps a zero derating factor, which means "nominal", to the
// factor 1 that sets the same state explicitly.
func nominalFactor(f float64) float64 {
	if f == 0 {
		return 1
	}
	return f
}

// EventKind identifies a degradation event class.
type EventKind int

// Degradation event classes.
const (
	// EventThermalThrottle dilates a processor's latency by Factor (≥ 1);
	// Factor 1 clears an earlier throttle.
	EventThermalThrottle EventKind = iota + 1
	// EventFrequencyScale moves a processor to the DVFS operating point
	// Factor ∈ (0, 1] of nominal frequency; Factor 1 restores nominal.
	EventFrequencyScale
	// EventProcessorOffline removes a processor from service (higher-priority
	// subsystem claims it, driver reset, thermal shutdown).
	EventProcessorOffline
	// EventProcessorOnline returns a processor to service. It clears only
	// Offline: a throttle or DVFS step applied before the processor went
	// offline still holds when it comes back.
	EventProcessorOnline
	// EventBandwidthSqueeze derates the shared memory bus to Factor ∈ (0, 1]
	// of its nominal capacity (co-located non-inference traffic); Factor 1
	// restores it. The squeeze changes co-execution slowdown only — solo
	// cost tables are bus-capacity independent, so no table goes stale.
	EventBandwidthSqueeze
)

var eventKindNames = map[EventKind]string{
	EventThermalThrottle:  "throttle",
	EventFrequencyScale:   "freq",
	EventProcessorOffline: "offline",
	EventProcessorOnline:  "online",
	EventBandwidthSqueeze: "bus",
}

// String returns the short event-class name used by the CLI grammar.
func (k EventKind) String() string {
	if s, ok := eventKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Valid reports whether k is a known event class.
func (k EventKind) Valid() bool {
	_, ok := eventKindNames[k]
	return ok
}

// Event is one degradation transition at a point of the simulated clock.
type Event struct {
	// At is the virtual time the transition takes effect (the stream
	// scheduler's clock).
	At time.Duration
	// Kind is the transition class.
	Kind EventKind
	// Processor is the target processor ID; empty for SoC-wide events
	// (EventBandwidthSqueeze).
	Processor string
	// Factor is the transition magnitude: latency dilation for throttles,
	// frequency fraction for scaling, bus fraction for squeezes. Unused for
	// offline/online.
	Factor float64
}

// Validate reports the first problem with the event description, or nil.
// Processor existence is checked by Apply against a concrete SoC. A factor
// must be finite: NaN passes every range comparison, and an infinite
// dilation has no representable virtual duration.
func (ev Event) Validate() error {
	switch ev.Kind {
	case EventThermalThrottle:
		if !finite(ev.Factor) {
			return fmt.Errorf("soc: throttle event factor %g not finite", ev.Factor)
		}
		if ev.Factor < 1 {
			return fmt.Errorf("soc: throttle event factor %g below 1", ev.Factor)
		}
	case EventFrequencyScale:
		if !(ev.Factor > 0 && ev.Factor <= 1) {
			return fmt.Errorf("soc: frequency event factor %g outside (0,1]", ev.Factor)
		}
		// Latency scales by the reciprocal, which a subnormal fraction
		// overflows.
		if !finite(1 / ev.Factor) {
			return fmt.Errorf("soc: frequency event factor %g has no finite reciprocal", ev.Factor)
		}
	case EventProcessorOffline, EventProcessorOnline:
		// Factor unused.
	case EventBandwidthSqueeze:
		if !(ev.Factor > 0 && ev.Factor <= 1) {
			return fmt.Errorf("soc: bandwidth event factor %g outside (0,1]", ev.Factor)
		}
		if ev.Processor != "" {
			return fmt.Errorf("soc: bandwidth event targets processor %q; the squeeze is SoC-wide", ev.Processor)
		}
	default:
		return fmt.Errorf("soc: unknown event kind %d", int(ev.Kind))
	}
	if ev.At < 0 {
		return fmt.Errorf("soc: event time %v negative", ev.At)
	}
	if ev.Kind != EventBandwidthSqueeze && ev.Processor == "" {
		return fmt.Errorf("soc: %s event names no processor", ev.Kind)
	}
	return nil
}

// String renders the event in the ParseEvent grammar.
func (ev Event) String() string {
	var b strings.Builder
	b.WriteString(ev.Kind.String())
	if ev.Processor != "" {
		b.WriteByte(':')
		b.WriteString(ev.Processor)
	}
	fmt.Fprintf(&b, "@%v", ev.At)
	switch ev.Kind {
	case EventThermalThrottle, EventFrequencyScale, EventBandwidthSqueeze:
		fmt.Fprintf(&b, ":%g", ev.Factor)
	}
	return b.String()
}

// Apply executes the transition on the SoC in place and returns the indices
// of processors whose solo cost tables it staled — the set a planner must
// re-measure. Bandwidth squeezes return no indices: bus capacity enters
// only the co-execution slowdown model, never the solo tables.
//
// An event whose resulting derating state fails Degradation.Validate (a
// throttle and a DVFS step whose combined dilation overflows) returns an
// error and leaves the SoC unchanged.
//
// An event that restates the current state (an online event for a processor
// already in service, a throttle re-asserting the active factor, a bus
// squeeze at the current derate) is a no-op: it stales nothing, returns no
// indices and leaves the degradation epoch untouched, so downstream caches
// keyed on Epoch keep their entries. Every state-changing Apply bumps the
// epoch — including bandwidth squeezes, which change the co-execution
// slowdown model (and therefore any memoized plan) even though no solo cost
// table goes stale.
func (s *SoC) Apply(ev Event) ([]int, error) {
	if err := ev.Validate(); err != nil {
		return nil, err
	}
	// A zero derating field means "nominal", the same state factor 1 sets
	// explicitly; normalise before comparing so clearing an unset knob is
	// recognised as a no-op.
	if ev.Kind == EventBandwidthSqueeze {
		if nominalFactor(s.BusDerate) == ev.Factor {
			return nil, nil
		}
		s.BusDerate = ev.Factor
		s.epoch++
		return nil, nil
	}
	idx := -1
	for i := range s.Processors {
		if s.Processors[i].ID == ev.Processor {
			idx = i
			break
		}
	}
	if idx < 0 {
		return nil, fmt.Errorf("soc %q: event %s targets unknown processor %q", s.Name, ev.Kind, ev.Processor)
	}
	p := &s.Processors[idx]
	d := p.Degrade
	switch ev.Kind {
	case EventThermalThrottle:
		if nominalFactor(d.ThrottleFactor) == ev.Factor {
			return nil, nil
		}
		d.ThrottleFactor = ev.Factor
	case EventFrequencyScale:
		if nominalFactor(d.FreqFraction) == ev.Factor {
			return nil, nil
		}
		d.FreqFraction = ev.Factor
	case EventProcessorOffline:
		if d.Offline {
			return nil, nil
		}
		d.Offline = true
	case EventProcessorOnline:
		if !d.Offline {
			return nil, nil
		}
		d.Offline = false
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("soc %q: event %s: %w", s.Name, ev, err)
	}
	p.Degrade = d
	s.epoch++
	return []int{idx}, nil
}

// Nominal reports whether every processor runs at its nominal description:
// online, with neither a throttle nor a DVFS step in effect — the state in
// which freshly measured solo cost tables equal the ones measured before
// any degradation event. A factor of 0 and a factor of 1 are the same
// state, as LayerTime multiplies by exactly 1.0 either way. The bus derate
// never enters those tables, so it does not count.
func (s *SoC) Nominal() bool {
	for i := range s.Processors {
		d := s.Processors[i].Degrade
		if d.Offline || nominalFactor(d.ThrottleFactor) != 1 || nominalFactor(d.FreqFraction) != 1 {
			return false
		}
	}
	return true
}

// AvailableProcessors returns the indices of processors currently in
// service.
func (s *SoC) AvailableProcessors() []int {
	var out []int
	for i := range s.Processors {
		if !s.Processors[i].Degrade.Offline {
			out = append(out, i)
		}
	}
	return out
}

// SortEvents returns a copy of the events stably sorted by firing time —
// the order the stream scheduler consumes them in.
func SortEvents(events []Event) []Event {
	out := append([]Event(nil), events...)
	sort.SliceStable(out, func(a, b int) bool { return out[a].At < out[b].At })
	return out
}

// ParseEvent parses one event spec in the grammar
//
//	kind[:processor]@at[:factor]
//
// e.g. "throttle:cpu-big@10ms:1.8", "offline:npu@40ms", "online:npu@90ms",
// "freq:gpu@5ms:0.5", "bus@20ms:0.6". Times use time.ParseDuration.
func ParseEvent(spec string) (Event, error) {
	var ev Event
	head, tail, ok := strings.Cut(spec, "@")
	if !ok {
		return ev, fmt.Errorf("soc: event %q missing @time", spec)
	}
	kindName, proc, _ := strings.Cut(head, ":")
	kind, ok := func() (EventKind, bool) {
		for k, n := range eventKindNames {
			if n == kindName {
				return k, true
			}
		}
		return 0, false
	}()
	if !ok {
		return ev, fmt.Errorf("soc: event %q has unknown kind %q", spec, kindName)
	}
	ev.Kind = kind
	ev.Processor = proc
	atStr, factorStr, hasFactor := strings.Cut(tail, ":")
	at, err := time.ParseDuration(atStr)
	if err != nil {
		return ev, fmt.Errorf("soc: event %q time: %w", spec, err)
	}
	ev.At = at
	switch kind {
	case EventThermalThrottle, EventFrequencyScale, EventBandwidthSqueeze:
		if !hasFactor {
			return ev, fmt.Errorf("soc: event %q needs a :factor", spec)
		}
		f, err := strconv.ParseFloat(factorStr, 64)
		if err != nil {
			return ev, fmt.Errorf("soc: event %q factor %q: %w", spec, factorStr, err)
		}
		ev.Factor = f
	default:
		if hasFactor {
			return ev, fmt.Errorf("soc: event %q: %s takes no factor", spec, kind)
		}
	}
	if err := ev.Validate(); err != nil {
		return ev, err
	}
	return ev, nil
}

// ParseEvents parses a comma-separated event list (the CLI flag format) and
// returns the events sorted by firing time.
func ParseEvents(csv string) ([]Event, error) {
	if strings.TrimSpace(csv) == "" {
		return nil, nil
	}
	var out []Event
	for _, spec := range strings.Split(csv, ",") {
		ev, err := ParseEvent(strings.TrimSpace(spec))
		if err != nil {
			return nil, err
		}
		out = append(out, ev)
	}
	return SortEvents(out), nil
}
