// Package profile builds the cost tables the Hetero²Pipe planner consumes:
// for each (model, processor) pair, the solo execution time T_k^e(i, j) of
// any layer slice [i, j] in O(1) via prefix sums, the memory-copy cost T^c
// of slice boundaries (Eq. 2), per-slice contention footprints, and per-
// slice memory footprints for the Eq. (6) capacity constraint.
//
// This package is the only interface between the planner and the SoC
// substrate: the paper's measurement phase ("we measure the resource demands
// from solo executions as a proxy", Observation 1) corresponds exactly to
// constructing a Profile.
package profile

import (
	"fmt"
	"time"

	"hetero2pipe/internal/contention"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/soc"
)

// Table holds the prefix-summed solo costs of one model on one processor.
type Table struct {
	proc *soc.Processor
	// timePrefix[i] is the summed layer time of layers [0, i).
	timePrefix []time.Duration
	// busPrefix[i] is the summed effective bus traffic of layers [0, i).
	busPrefix []float64
	// unsupPrefix[i] counts NPU-unsupported (for this processor) layers in
	// [0, i).
	unsupPrefix []int
}

// Proc returns the processor this table profiles.
func (t *Table) Proc() *soc.Processor { return t.proc }

// ExecTime returns the solo execution time of layers [i, j] (inclusive),
// T_k^e(i, j), in O(1). It returns soc.InfDuration if the range contains an
// operator the processor cannot execute, and 0 for an empty range (j < i,
// Property 2's boundary convention).
func (t *Table) ExecTime(i, j int) time.Duration {
	if j < i {
		return 0
	}
	if i < 0 || j >= len(t.timePrefix)-1 {
		return soc.InfDuration
	}
	if t.unsupPrefix[j+1]-t.unsupPrefix[i] > 0 {
		return soc.InfDuration
	}
	return t.timePrefix[j+1] - t.timePrefix[i]
}

// Supported reports whether every layer in [i, j] runs on the processor.
func (t *Table) Supported(i, j int) bool {
	if j < i || i < 0 || j >= len(t.unsupPrefix)-1 {
		return false
	}
	return t.unsupPrefix[j+1]-t.unsupPrefix[i] == 0
}

// busBytes returns the effective shared-bus traffic of layers [i, j].
func (t *Table) busBytes(i, j int) float64 {
	if j < i || i < 0 || j >= len(t.busPrefix)-1 {
		return 0
	}
	return t.busPrefix[j+1] - t.busPrefix[i]
}

// Base is the model-level half of a Profile: everything about one (SoC,
// model) pair that no processor's runtime state changes. Building it
// validates both descriptions; it holds the weight prefix and activation
// range-max behind MemoryBytes, and the copy-in table behind CopyInTime.
// Degradation events never stale it, so every Profile re-assembled for the
// pair after an event shares one Base and measures only its stale tables.
// Like the tables, a Base fixes the SoC's copy costs when it is built: an
// in-place edit of the SoC description needs a new one.
type Base struct {
	soc   *soc.SoC
	model *model.Model
	// weightPrefix[i] is the summed weight bytes of layers [0, i).
	weightPrefix []int64
	// actMax is a sparse table for O(1) range-max over activation sizes.
	actMax sparseMax
	// copyIn[i] is T^c(i), the copy-in cost of a slice starting at layer i.
	copyIn []time.Duration
}

// NewBase validates the SoC and the model and builds their model-level
// half in O(n log n).
func NewBase(s *soc.SoC, m *model.Model) (*Base, error) {
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	n := m.NumLayers()
	b := &Base{
		soc:          s,
		model:        m,
		weightPrefix: make([]int64, n+1),
		copyIn:       make([]time.Duration, n),
	}
	for i, l := range m.Layers {
		b.weightPrefix[i+1] = b.weightPrefix[i] + l.WeightBytes
		b.copyIn[i] = s.CopyTime(l.InputBytes)
	}
	b.actMax = newSparseMax(n, func(i int) int64 {
		return max(m.Layers[i].InputBytes, m.Layers[i].OutputBytes)
	})
	return b, nil
}

// Profile holds every per-processor table for one model on one SoC over
// their shared model-level half (Base).
type Profile struct {
	base *Base
	// tables[k] is the cost table on s.Processors[k].
	tables []*Table
}

// New measures the model on every processor of the SoC and returns the
// profile. The construction cost is O(nK) layer-time evaluations — the
// "manageable profiling efforts" the paper's solo-execution proxy buys.
func New(s *soc.SoC, m *model.Model) (*Profile, error) {
	b, err := NewBase(s, m)
	if err != nil {
		return nil, err
	}
	return b.Assemble(nil)
}

// Assemble returns a Profile over b from per-processor cost tables,
// measuring any nil slot afresh. reuse may be nil (measure everything) or
// one entry per processor; reused tables must have been measured for b's
// (SoC, model) pair in the SoC's current state, which is the caller's
// contract (the planner's cost cache upholds it structurally). This is the
// primitive behind partial cache invalidation: after a degradation event
// stales one processor's tables, only that slot is re-measured, and the
// other K−1 tables and the model-level half are shared.
func (b *Base) Assemble(reuse []*Table) (*Profile, error) {
	s, m := b.soc, b.model
	if reuse != nil && len(reuse) != s.NumProcessors() {
		return nil, fmt.Errorf("profile: %d reusable tables for %d processors", len(reuse), s.NumProcessors())
	}
	n, numK := m.NumLayers(), s.NumProcessors()
	p := &Profile{base: b, tables: make([]*Table, numK)}
	// Slab-allocate the freshly-measured tables: one Table array and one
	// backing array per prefix kind, shared across all measured processors,
	// instead of four allocations per table. Reused tables keep their own
	// backing (the slab only covers the nil slots).
	fresh := 0
	for k := 0; k < numK; k++ {
		if reuse == nil || reuse[k] == nil {
			fresh++
		}
	}
	if fresh == 0 {
		copy(p.tables, reuse)
		return p, nil
	}
	slab := make([]Table, fresh)
	times := make([]time.Duration, fresh*(n+1))
	buses := make([]float64, fresh*(n+1))
	unsups := make([]int, fresh*(n+1))
	next := 0
	for k := range s.Processors {
		if reuse != nil && reuse[k] != nil {
			p.tables[k] = reuse[k]
			continue
		}
		t := &slab[next]
		lo, hi := next*(n+1), (next+1)*(n+1)
		t.proc = &s.Processors[k]
		t.timePrefix = times[lo:hi:hi]
		t.busPrefix = buses[lo:hi:hi]
		t.unsupPrefix = unsups[lo:hi:hi]
		measureTableInto(t, m)
		p.tables[k] = t
		next++
	}
	return p, nil
}

// measureTableInto fills a pre-allocated table (proc set, prefix slices
// sized n+1) with the model's prefix-summed solo costs.
func measureTableInto(t *Table, m *model.Model) {
	proc := t.proc
	for i, l := range m.Layers {
		lt := proc.LayerTime(l)
		unsup := 0
		if lt == soc.InfDuration {
			lt = 0
			unsup = 1
		}
		t.timePrefix[i+1] = t.timePrefix[i] + lt
		t.busPrefix[i+1] = t.busPrefix[i] + proc.BusTrafficBytes(l)
		t.unsupPrefix[i+1] = t.unsupPrefix[i] + unsup
	}
}

// SoC returns the profiled SoC.
func (p *Profile) SoC() *soc.SoC { return p.base.soc }

// Model returns the profiled model.
func (p *Profile) Model() *model.Model { return p.base.model }

// NumLayers returns the model's layer count n.
func (p *Profile) NumLayers() int { return p.base.model.NumLayers() }

// NumProcessors returns the SoC's processor count K.
func (p *Profile) NumProcessors() int { return len(p.tables) }

// Table returns the cost table of processor k.
func (p *Profile) Table(k int) *Table { return p.tables[k] }

// ExecTime returns T_k^e(i, j): the solo time of layers [i, j] on processor
// k, or soc.InfDuration if unsupported there.
func (p *Profile) ExecTime(k, i, j int) time.Duration {
	return p.tables[k].ExecTime(i, j)
}

// CopyInTime returns the T^c term of placing a slice starting at layer i on
// a processor: the cost of copying the slice's input tensor between address
// spaces on the unified memory. The model input (i == 0) pays the same copy
// (host buffer → processor). The cost was fixed when the profile's Base
// was built.
func (p *Profile) CopyInTime(i int) time.Duration {
	if i < 0 || i >= len(p.base.copyIn) {
		return 0
	}
	return p.base.copyIn[i]
}

// SliceTime returns the combined T_k^e(i, j) + T^c(i) cost the paper's
// Algorithm 1 operates on ("define T_k^e(i,j) as the sum ... that combines
// the solo execution and memory copy time").
func (p *Profile) SliceTime(k, i, j int) time.Duration {
	if j < i {
		return 0
	}
	e := p.tables[k].ExecTime(i, j)
	if e == soc.InfDuration {
		return soc.InfDuration
	}
	// A finite ExecTime with j ≥ i puts i in [0, n).
	return e + p.base.copyIn[i] + p.tables[k].proc.LaunchOverhead
}

// LayerTime returns the solo time of a single layer on processor k.
func (p *Profile) LayerTime(k, i int) time.Duration {
	return p.tables[k].ExecTime(i, i)
}

// Footprint returns the contention footprint of running layers [i, j] on
// processor k, in O(1).
func (p *Profile) Footprint(k, i, j int) contention.Footprint {
	t := p.tables[k]
	e := t.ExecTime(i, j)
	if e == soc.InfDuration || e <= 0 {
		return contention.Footprint{}
	}
	return contention.FootprintFromTotals(t.proc, t.busBytes(i, j), e.Seconds())
}

// MemoryBytes returns the resident memory of running layers [i, j]: their
// weights plus double-buffered peak activation, the quantity constraint
// (Eq. 6) sums across concurrent slices.
func (p *Profile) MemoryBytes(i, j int) int64 {
	b := p.base
	if j < i || i < 0 || j >= b.model.NumLayers() {
		return 0
	}
	return b.weightPrefix[j+1] - b.weightPrefix[i] + 2*b.actMax.Max(i, j)
}

// sparseMax answers range-max queries over int64 values in O(1) after
// O(n log n) preprocessing. All levels live in one flat backing array
// (level lvl spans flat[offs[lvl] : offs[lvl]+n-2^lvl+1]) so construction
// costs three allocations regardless of depth.
type sparseMax struct {
	flat []int64
	offs []int
	logs []int
}

// newSparseMax builds the table over n values, val(i) being the i-th.
func newSparseMax(n int, val func(int) int64) sparseMax {
	logs := make([]int, n+1)
	for i := 2; i <= n; i++ {
		logs[i] = logs[i/2] + 1
	}
	levels := 1
	if n > 0 {
		levels = logs[n] + 1
	}
	offs := make([]int, levels+1)
	for lvl := 0; lvl < levels; lvl++ {
		offs[lvl+1] = offs[lvl] + n - 1<<lvl + 1
	}
	flat := make([]int64, offs[levels])
	for i := range flat[:n] {
		flat[i] = val(i)
	}
	for lvl := 1; lvl < levels; lvl++ {
		span := 1 << lvl
		prev, cur := flat[offs[lvl-1]:offs[lvl]], flat[offs[lvl]:offs[lvl+1]]
		for i := 0; i+span <= n; i++ {
			a, b := prev[i], prev[i+span/2]
			if b > a {
				a = b
			}
			cur[i] = a
		}
	}
	return sparseMax{flat: flat, offs: offs, logs: logs}
}

// Max returns the maximum over indices [i, j] (inclusive); both must be in
// range and i ≤ j.
func (s *sparseMax) Max(i, j int) int64 {
	lvl := s.logs[j-i+1]
	base := s.offs[lvl]
	a, b := s.flat[base+i], s.flat[base+j-(1<<lvl)+1]
	if b > a {
		a = b
	}
	return a
}
