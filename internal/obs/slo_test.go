package obs

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"time"
)

// TestSLOBudgetBurnRate pins the burn-rate arithmetic: lifetime totals never
// reset, the windowed figures age out on the virtual clock, and the burn
// rate reads windowed-miss-fraction over target.
func TestSLOBudgetBurnRate(t *testing.T) {
	m := NewSLOMonitor(100*time.Millisecond, map[string]float64{"gold": 0.1})

	// 10 completions inside one window, 2 missed: windowed fraction 0.2,
	// target 0.1 → burning 2× faster than budget.
	for i := 0; i < 10; i++ {
		m.Observe("gold", time.Duration(i)*time.Millisecond, i < 2)
	}
	rep := m.Report()
	if len(rep.Classes) != 1 {
		t.Fatalf("classes = %+v, want one", rep.Classes)
	}
	c := rep.Classes[0]
	if c.Class != "gold" || c.Total != 10 || c.Missed != 2 {
		t.Fatalf("lifetime state wrong: %+v", c)
	}
	if c.WindowTotal != 10 || c.WindowMissed != 2 {
		t.Fatalf("window state wrong: %+v", c)
	}
	if c.BurnRate != 2 {
		t.Errorf("burn rate = %v, want 2", c.BurnRate)
	}
	if want := 1 - 0.2/0.1; c.BudgetRemaining != want {
		t.Errorf("budget remaining = %v, want %v (exhausted)", c.BudgetRemaining, want)
	}

	// A clean stretch one window later ages the misses out of the burn rate
	// while lifetime totals keep counting.
	for i := 0; i < 10; i++ {
		m.Observe("gold", time.Second+time.Duration(i)*time.Millisecond, false)
	}
	c = m.Report().Classes[0]
	if c.Total != 20 || c.Missed != 2 {
		t.Errorf("lifetime state reset: %+v", c)
	}
	if c.WindowTotal != 10 || c.WindowMissed != 0 || c.BurnRate != 0 {
		t.Errorf("old misses did not age out: %+v", c)
	}
}

// TestSLOBudgetUnbudgetedClass: classes observed without a budget are
// counted but burn nothing.
func TestSLOBudgetUnbudgetedClass(t *testing.T) {
	m := NewSLOMonitor(0, nil)
	if m.Window() != DefaultSLOWindow {
		t.Errorf("window = %v, want default %v", m.Window(), DefaultSLOWindow)
	}
	m.Observe("stray", 0, true)
	m.Observe("stray", time.Millisecond, false)
	c := m.Report().Classes[0]
	if c.Target != 0 || c.BurnRate != 0 || c.BudgetRemaining != 1 {
		t.Errorf("unbudgeted class burns: %+v", c)
	}
	if c.Total != 2 || c.Missed != 1 || c.MissFraction != 0.5 {
		t.Errorf("unbudgeted class miscounted: %+v", c)
	}

	// SetBudget clamps out-of-range targets; NaN reads 0 (unbudgeted), so
	// the report always marshals.
	for _, c := range []struct{ target, want float64 }{
		{7, 1}, {-1, 0}, {math.Inf(1), 1}, {math.Inf(-1), 0}, {math.NaN(), 0},
	} {
		m.SetBudget("stray", c.target)
		rep := m.Report()
		if got := rep.Classes[0].Target; got != c.want {
			t.Errorf("SetBudget(%v): target clamped to %v, want %v", c.target, got, c.want)
		}
		if raw, err := rep.JSON(); err != nil || !json.Valid(raw) {
			t.Errorf("SetBudget(%v): report JSON = %s, %v", c.target, raw, err)
		}
	}
}

// TestSLOBudgetNilSafety: the monitor follows the package's nil-instrument
// idiom end to end.
func TestSLOBudgetNilSafety(t *testing.T) {
	var m *SLOMonitor
	m.Observe("x", 0, true)
	m.SetBudget("x", 0.5)
	if m.Window() != 0 {
		t.Error("nil monitor reports a window")
	}
	rep := m.Report()
	if rep == nil || len(rep.Classes) != 0 {
		t.Errorf("nil monitor report = %+v", rep)
	}
	raw, err := rep.JSON()
	if err != nil || !strings.Contains(string(raw), "classes") {
		t.Errorf("nil monitor report JSON = %s, %v", raw, err)
	}
}
