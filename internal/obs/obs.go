// Package obs is a dependency-free metrics subsystem for the Hetero2Pipe
// runtime. It provides atomic counters, gauges and fixed-bucket histograms
// behind a named registry. All instruments are safe for concurrent use and
// can be snapshotted without stopping the world: writers never take the
// registry lock on the hot path, and Snapshot only takes a read lock on the
// instrument maps while reading values with atomic loads.
//
// Every accessor is nil-receiver-safe: a nil *Registry hands out detached
// instruments that accept writes and read back zero, so instrumented code
// never needs to guard call sites with nil checks.
package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry is a named collection of metric instruments. Instruments are
// created lazily on first access and shared by name afterwards.
//
// A registry may carry a label set (WithLabels): labeled views share their
// parent's instrument store but register instruments under decorated
// `name{key="value"}` series keys, the scheme the fleet layer uses to give
// every device its own series in one shared registry.
type Registry struct {
	name string
	// labels is the preformatted label block (`device="dev0"`), empty for
	// the root view. Series keys are name + "{" + labels + "}".
	labels string
	store  *registryStore
}

// registryStore is the instrument state shared by a registry and every
// labeled view derived from it.
type registryStore struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry returns an empty registry. The name prefixes every metric in
// the Prometheus export (e.g. "h2pipe_planner_plans_total").
func NewRegistry(name string) *Registry {
	return &Registry{
		name: name,
		store: &registryStore{
			counters: make(map[string]*Counter),
			gauges:   make(map[string]*Gauge),
			hists:    make(map[string]*Histogram),
		},
	}
}

// Name reports the registry name ("" for a nil registry).
func (r *Registry) Name() string {
	if r == nil {
		return ""
	}
	return r.name
}

// WithLabels returns a view of the registry whose instruments live under
// `name{key="value",...}` series keys. The view shares the parent's
// instrument store — Snapshot and the exporters see every view's series —
// so N concurrent views hammer one lock-free store, not N silos. Pairs
// append to any labels the receiver already carries; an odd-length kv list
// is rejected by returning the receiver unchanged. A nil registry stays
// nil (detached instruments all the way down).
func (r *Registry) WithLabels(kv ...string) *Registry {
	if r == nil || len(kv) == 0 || len(kv)%2 != 0 {
		return r
	}
	var b strings.Builder
	b.WriteString(r.labels)
	for i := 0; i < len(kv); i += 2 {
		if b.Len() > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	return &Registry{name: r.name, labels: b.String(), store: r.store}
}

// Labels reports the view's preformatted label block ("" for the root view
// or a nil registry).
func (r *Registry) Labels() string {
	if r == nil {
		return ""
	}
	return r.labels
}

// SeriesName decorates an instrument name with a label block the way
// WithLabels views key their instruments: `name{key="value"}`. Use it to
// look labeled series up in a Snapshot.
func SeriesName(name string, kv ...string) string {
	v := (&Registry{}).WithLabels(kv...)
	return v.key(name)
}

// key returns the series key name registers under in this view.
func (r *Registry) key(name string) string {
	if r.labels == "" {
		return name
	}
	return name + "{" + r.labels + "}"
}

// Counter returns the counter registered under name, creating it if needed.
// A nil registry returns a detached counter.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return &Counter{}
	}
	name = r.key(name)
	st := r.store
	st.mu.RLock()
	c, ok := st.counters[name]
	st.mu.RUnlock()
	if ok {
		return c
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if c, ok = st.counters[name]; ok {
		return c
	}
	c = &Counter{}
	st.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it if needed.
// A nil registry returns a detached gauge.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	name = r.key(name)
	st := r.store
	st.mu.RLock()
	g, ok := st.gauges[name]
	st.mu.RUnlock()
	if ok {
		return g
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if g, ok = st.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	st.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket upper bounds if needed. Bounds must be sorted ascending;
// an implicit +Inf bucket is always appended. If the histogram already
// exists the bounds argument is ignored. A nil registry returns a detached
// histogram.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return newHistogram(bounds)
	}
	name = r.key(name)
	st := r.store
	st.mu.RLock()
	h, ok := st.hists[name]
	st.mu.RUnlock()
	if ok {
		return h
	}
	st.mu.Lock()
	defer st.mu.Unlock()
	if h, ok = st.hists[name]; ok {
		return h
	}
	h = newHistogram(bounds)
	st.hists[name] = h
	return h
}

// Counter is a monotonically increasing uint64.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta uint64) { c.v.Add(delta) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 value that can move in either direction.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the value by delta (CAS loop).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Max raises the value to v if v is larger (CAS loop).
func (g *Gauge) Max(v float64) {
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value reads the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed buckets. The bucket layout is
// immutable after creation, so Observe is a single atomic add plus a binary
// search — no locks.
type Histogram struct {
	bounds  []float64 // sorted upper bounds; counts has len(bounds)+1 slots
	counts  []atomic.Uint64
	sumBits atomic.Uint64 // float64 bits of the running sum
	count   atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	sort.Float64s(b)
	return &Histogram{
		bounds: b,
		counts: make([]atomic.Uint64, len(b)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveDuration records d in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count reports the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reports the running sum of observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// LatencyBuckets is a default exponential layout for latencies in seconds,
// spanning 100µs to 10s.
func LatencyBuckets() []float64 {
	return []float64{
		1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2,
		2.5e-2, 5e-2, 1e-1, 2.5e-1, 5e-1, 1, 2.5, 5, 10,
	}
}

// SlowdownBuckets is a default layout for co-execution slowdown factors
// (dimensionless, ≥ 1 for slowdown, per the paper's ψ).
func SlowdownBuckets() []float64 {
	return []float64{1.0, 1.1, 1.25, 1.5, 1.75, 2, 2.5, 3, 4, 5, 7.5, 10}
}

// Snapshot is a point-in-time copy of every instrument in a registry.
type Snapshot struct {
	Name       string                       `json:"name"`
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]float64           `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// HistogramSnapshot is the frozen state of one histogram. Buckets are
// per-bucket (non-cumulative) counts aligned with Bounds; the final slot
// counts observations above the last bound (+Inf).
type HistogramSnapshot struct {
	Bounds  []float64 `json:"bounds"`
	Buckets []uint64  `json:"buckets"`
	Count   uint64    `json:"count"`
	Sum     float64   `json:"sum"`
}

// Snapshot copies the current value of every instrument — including every
// labeled view's series, keyed by their decorated names. It holds the
// store read lock only while walking the instrument maps; values are
// read with atomic loads, so concurrent writers are never blocked.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	st := r.store
	st.mu.RLock()
	defer st.mu.RUnlock()
	s := Snapshot{Name: r.name}
	if len(st.counters) > 0 {
		s.Counters = make(map[string]uint64, len(st.counters))
		for name, c := range st.counters {
			s.Counters[name] = c.Value()
		}
	}
	if len(st.gauges) > 0 {
		s.Gauges = make(map[string]float64, len(st.gauges))
		for name, g := range st.gauges {
			s.Gauges[name] = g.Value()
		}
	}
	if len(st.hists) > 0 {
		s.Histograms = make(map[string]HistogramSnapshot, len(st.hists))
		for name, h := range st.hists {
			hs := HistogramSnapshot{
				Bounds:  append([]float64(nil), h.bounds...),
				Buckets: make([]uint64, len(h.counts)),
				Count:   h.Count(),
				Sum:     h.Sum(),
			}
			for i := range h.counts {
				hs.Buckets[i] = h.counts[i].Load()
			}
			s.Histograms[name] = hs
		}
	}
	return s
}
