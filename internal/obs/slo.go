package obs

import (
	"encoding/json"
	"sort"
	"sync"
	"time"
)

// SLOMonitor tracks per-class deadline error budgets for the stream
// scheduler. Each class carries a target miss fraction (its error budget);
// the monitor accumulates lifetime totals and a sliding window of recent
// completions on the virtual clock, from which it derives the windowed burn
// rate — how many times faster than budget the class is currently burning
// (1.0 = exactly on budget, >1 = on course to exhaust it).
//
// Classes are keyed by name (core.SLOClass.String()) rather than by the
// typed class, keeping obs free of a core dependency; the stream layer
// resolves each completion's class before observing. Classes observed
// without a configured budget are still counted (their burn rate reads 0 —
// there is no budget to burn).
//
// Every method is nil-receiver-safe, the package's instrument idiom, so the
// scheduler observes unconditionally.
type SLOMonitor struct {
	mu      sync.Mutex
	window  time.Duration
	classes map[string]*sloClass
}

type sloClass struct {
	target  float64 // budgeted miss fraction; 0 = unbudgeted
	total   uint64
	missed  uint64
	samples []sloSample // completions within the sliding window, append order
	winMiss int
}

type sloSample struct {
	at     time.Duration
	missed bool
}

// DefaultSLOWindow is the burn-rate window applied to non-positive window
// arguments: one virtual second of completions.
const DefaultSLOWindow = time.Second

// NewSLOMonitor returns a monitor with the given burn-rate window on the
// virtual clock (non-positive selects DefaultSLOWindow) and per-class
// budget targets (class name → target miss fraction in [0,1]).
func NewSLOMonitor(window time.Duration, budgets map[string]float64) *SLOMonitor {
	if window <= 0 {
		window = DefaultSLOWindow
	}
	m := &SLOMonitor{window: window, classes: make(map[string]*sloClass)}
	for class, target := range budgets {
		m.SetBudget(class, target)
	}
	return m
}

// SetBudget sets (or replaces) one class's target miss fraction, clamped
// to [0,1]. NaN counts as out of range and reads 0 (unbudgeted), so Report
// always marshals.
func (m *SLOMonitor) SetBudget(class string, target float64) {
	if m == nil {
		return
	}
	if !(target >= 0) {
		target = 0
	}
	if target > 1 {
		target = 1
	}
	m.mu.Lock()
	m.class(class).target = target
	m.mu.Unlock()
}

// class returns the named class's state, creating it if needed. Called with
// the lock held.
func (m *SLOMonitor) class(name string) *sloClass {
	c := m.classes[name]
	if c == nil {
		c = &sloClass{}
		m.classes[name] = c
	}
	return c
}

// Observe records one request completion for the class at the given
// virtual-clock instant, missed marking a blown deadline. Samples older
// than the window (relative to the newest observed instant) age out of the
// burn-rate computation; lifetime totals never reset. Under a concurrent
// fleet run each device observes on its own virtual clock, so the windowed
// figures are best-effort there; lifetime totals stay exact.
func (m *SLOMonitor) Observe(class string, at time.Duration, missed bool) {
	if m == nil {
		return
	}
	m.mu.Lock()
	c := m.class(class)
	c.total++
	if missed {
		c.missed++
		c.winMiss++
	}
	c.samples = append(c.samples, sloSample{at: at, missed: missed})
	cutoff := at - m.window
	drop := 0
	for drop < len(c.samples) && c.samples[drop].at < cutoff {
		if c.samples[drop].missed {
			c.winMiss--
		}
		drop++
	}
	if drop > 0 {
		c.samples = c.samples[drop:]
	}
	m.mu.Unlock()
}

// Window reports the monitor's burn-rate window (0 for a nil monitor).
func (m *SLOMonitor) Window() time.Duration {
	if m == nil {
		return 0
	}
	return m.window
}

// SLOReport is the point-in-time state of every tracked class — the /slo
// endpoint's payload.
type SLOReport struct {
	// WindowMS is the burn-rate window in milliseconds of virtual time.
	WindowMS float64 `json:"window_ms"`
	// Classes lists every observed or budgeted class, sorted by name.
	Classes []SLOClassReport `json:"classes"`
}

// SLOClassReport is one class's row of the SLO report.
type SLOClassReport struct {
	Class string `json:"class"`
	// Target is the budgeted miss fraction (0 = no budget configured).
	Target float64 `json:"target"`
	// Total and Missed are lifetime completion and deadline-miss counts;
	// MissFraction is their ratio. Missed matches the
	// stream_deadline_miss_total{slo="..."} labeled counter.
	Total        uint64  `json:"total"`
	Missed       uint64  `json:"missed"`
	MissFraction float64 `json:"miss_fraction"`
	// WindowTotal/WindowMissed count completions inside the burn-rate
	// window; BurnRate is the windowed miss fraction over the target — how
	// many times faster than budget the class is burning (0 when
	// unbudgeted or idle).
	WindowTotal  int     `json:"window_total"`
	WindowMissed int     `json:"window_missed"`
	BurnRate     float64 `json:"burn_rate"`
	// BudgetRemaining is the unburnt share of the lifetime error budget:
	// 1 − MissFraction/Target. Negative once the budget is exhausted;
	// 1 when unbudgeted or miss-free.
	BudgetRemaining float64 `json:"budget_remaining"`
}

// Report snapshots every class, sorted by name.
func (m *SLOMonitor) Report() *SLOReport {
	rep := &SLOReport{Classes: []SLOClassReport{}}
	if m == nil {
		return rep
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	rep.WindowMS = float64(m.window) / float64(time.Millisecond)
	for name, c := range m.classes {
		row := SLOClassReport{
			Class:           name,
			Target:          c.target,
			Total:           c.total,
			Missed:          c.missed,
			WindowTotal:     len(c.samples),
			WindowMissed:    c.winMiss,
			BudgetRemaining: 1,
		}
		if c.total > 0 {
			row.MissFraction = float64(c.missed) / float64(c.total)
		}
		if c.target > 0 {
			if len(c.samples) > 0 {
				winFrac := float64(c.winMiss) / float64(len(c.samples))
				row.BurnRate = winFrac / c.target
			}
			row.BudgetRemaining = 1 - row.MissFraction/c.target
		}
		rep.Classes = append(rep.Classes, row)
	}
	sort.Slice(rep.Classes, func(a, b int) bool { return rep.Classes[a].Class < rep.Classes[b].Class })
	return rep
}

// JSON renders the report as indented JSON.
func (r *SLOReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
