package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"
)

// Multi-objective planning (ROADMAP item 2). The planner's candidate sweep
// already executes every candidate ordering under the slowdown model to pick
// the min-makespan winner; that execution prices each candidate in all four
// axes the deployment cares about — latency, throughput, energy and peak
// memory — for free. Pareto mode keeps the whole non-dominated frontier of
// that sweep instead of collapsing it to one point, and lets the caller (or
// the stream scheduler, per window) pick a point by SLO class: a
// battery-constrained caller takes the low-energy end, a latency-critical
// one the min-makespan end. That point has the single-objective plan's
// makespan and is no worse on any other axis, pinned by the differential
// suite. It is usually that very plan, but not always: the single-objective
// planner keeps the first candidate reaching the minimal makespan, and a
// later candidate with the same makespan can dominate it, in which case
// only the later one is on the frontier.

// ObjectiveMode selects between the classic single-objective planner and
// Pareto-frontier planning.
type ObjectiveMode int

const (
	// ObjectiveMakespan is the classic planner: one plan minimising the
	// executed makespan (the default, and the zero value).
	ObjectiveMakespan ObjectiveMode = iota
	// ObjectiveFrontier enumerates the non-dominated frontier over
	// (makespan, throughput, energy, peak memory) and selects a point per
	// SLO class.
	ObjectiveFrontier
)

// String names the mode the way ParseObjective accepts it.
func (m ObjectiveMode) String() string {
	switch m {
	case ObjectiveMakespan:
		return "makespan"
	case ObjectiveFrontier:
		return "frontier"
	}
	return fmt.Sprintf("objective(%d)", int(m))
}

// ParseObjective maps a CLI/config string to an ObjectiveMode. The empty
// string selects the classic makespan objective.
func ParseObjective(s string) (ObjectiveMode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "makespan", "latency":
		return ObjectiveMakespan, nil
	case "frontier", "pareto":
		return ObjectiveFrontier, nil
	}
	return 0, fmt.Errorf("core: unknown objective %q (want makespan or frontier)", s)
}

// Objective is the executed value of one candidate plan on every axis the
// planner optimises. Makespan, energy and peak memory are minimised;
// throughput is maximised.
type Objective struct {
	// Makespan is the executed completion time of the last request.
	Makespan time.Duration `json:"makespan"`
	// Throughput is completed inferences per second.
	Throughput float64 `json:"throughput"`
	// EnergyJoules prices the schedule under the per-processor power model
	// (busy power over busy spans, idle power over the rest of the
	// makespan; see soc.Power).
	EnergyJoules float64 `json:"energy_joules"`
	// PeakMemoryBytes is the maximum resident inference memory.
	PeakMemoryBytes int64 `json:"peak_memory_bytes"`
}

// Dominates reports Pareto dominance: a is no worse than b on every axis
// and strictly better on at least one.
func (a Objective) Dominates(b Objective) bool {
	if a.Makespan > b.Makespan || a.Throughput < b.Throughput ||
		a.EnergyJoules > b.EnergyJoules || a.PeakMemoryBytes > b.PeakMemoryBytes {
		return false
	}
	return a.Makespan < b.Makespan || a.Throughput > b.Throughput ||
		a.EnergyJoules < b.EnergyJoules || a.PeakMemoryBytes < b.PeakMemoryBytes
}

// equalObjective is exact equality on every axis (used to dedupe candidate
// orderings that converge on the same schedule).
func equalObjective(a, b Objective) bool {
	return a.Makespan == b.Makespan && a.Throughput == b.Throughput &&
		a.EnergyJoules == b.EnergyJoules && a.PeakMemoryBytes == b.PeakMemoryBytes
}

// FrontierPoint is one non-dominated plan with its objective value.
type FrontierPoint struct {
	// Plan is the executable plan at this point.
	Plan *Plan
	// Objective is the point's executed value on all four axes.
	Objective Objective
	// Candidate is the index of the candidate ordering that produced this
	// point in the planner's sweep — a stable identity used for
	// deterministic tie-breaks (lower index wins, matching the sequential
	// strict-improvement scan).
	Candidate int
}

// Frontier is the non-dominated set of the planner's candidate sweep,
// sorted by ascending makespan (ties by candidate index). Selection by SLO
// class is O(points); the frontier is small — bounded by the candidate
// count (≤ 6 under DefaultOptions).
type Frontier struct {
	Points []FrontierPoint
}

// newFrontier filters the candidate sweep down to its non-dominated set.
// Candidates with exactly equal objective vectors keep the lowest index
// (they are near-always the same schedule reached by different orderings —
// and when they are not, the lowest index is what the sequential
// single-objective scan would keep).
func newFrontier(plans []*Plan, objs []Objective) *Frontier {
	n := 0
	for i := range objs {
		if !dominated(objs, i) {
			n++
		}
	}
	pts := make([]FrontierPoint, 0, n)
	for i, p := range plans {
		if !dominated(objs, i) {
			pts = append(pts, FrontierPoint{Plan: p, Objective: objs[i], Candidate: i})
		}
	}
	slices.SortFunc(pts, func(a, b FrontierPoint) int {
		return cmp.Or(cmp.Compare(a.Objective.Makespan, b.Objective.Makespan), cmp.Compare(a.Candidate, b.Candidate))
	})
	return &Frontier{Points: pts}
}

// dominated reports whether candidate i stays off the frontier: another
// candidate dominates it, or an earlier one has exactly its objective vector
// (a duplicate, which that first index represents).
func dominated(objs []Objective, i int) bool {
	for j := range objs {
		if j != i && (objs[j].Dominates(objs[i]) || j < i && equalObjective(objs[j], objs[i])) {
			return true
		}
	}
	return false
}

// Size returns the number of non-dominated points.
func (f *Frontier) Size() int { return len(f.Points) }

// SLOKind enumerates the built-in SLO classes.
type SLOKind int

const (
	// SLOUnset is the zero value: "no class requested". Schedulers treat
	// it as their configured default, falling back to latency-critical.
	SLOUnset SLOKind = iota
	// SLOLatencyCriticalKind selects the min-makespan frontier point: the
	// single-objective plan's makespan, no worse on any other axis.
	SLOLatencyCriticalKind
	// SLOCustomKind scores points by caller-supplied weights.
	SLOCustomKind
	// SLOBalancedKind scores points by equal weights across all axes.
	SLOBalancedKind
	// SLOBatterySaverKind selects the min-energy frontier point.
	SLOBatterySaverKind
)

// Weights scores a frontier point for the custom SLO class. Each weight
// multiplies the point's normalised position on its axis (0 = best on the
// frontier, 1 = worst); the point with the lowest weighted sum wins.
// Throughput is internally inverted so a higher throughput scores lower.
type Weights struct {
	Makespan   float64 `json:"makespan"`
	Throughput float64 `json:"throughput"`
	Energy     float64 `json:"energy"`
	Memory     float64 `json:"memory"`
}

// SLOClass names a service-level objective for frontier point selection.
// The zero value is "unset" (scheduler default). Use the package variables
// (SLOLatencyCritical, SLOBalanced, SLOBatterySaver) or CustomSLO.
type SLOClass struct {
	Kind SLOKind `json:"kind"`
	// Weights apply only to SLOCustomKind.
	Weights Weights `json:"weights,omitempty"`
}

// The built-in SLO classes, ordered strictest first (see StrictestSLO).
var (
	// SLOLatencyCritical picks the min-makespan point: the makespan of the
	// single-objective plan, no worse on any other axis.
	SLOLatencyCritical = SLOClass{Kind: SLOLatencyCriticalKind}
	// SLOBalanced trades all four axes with equal weight.
	SLOBalanced = SLOClass{Kind: SLOBalancedKind}
	// SLOBatterySaver picks the min-energy point.
	SLOBatterySaver = SLOClass{Kind: SLOBatterySaverKind}
)

// CustomSLO builds a weighted SLO class. Weights are relative; at least one
// must be positive for the class to discriminate (all-zero weights degrade
// to the frontier's first — min-makespan — point).
func CustomSLO(w Weights) SLOClass {
	return SLOClass{Kind: SLOCustomKind, Weights: w}
}

// ErrUnknownSLOClass is returned by ParseSLOClass for a class name outside
// the grammar.
var ErrUnknownSLOClass = errors.New("core: unknown SLO class")

// String renders the class in the grammar ParseSLOClass accepts.
func (c SLOClass) String() string {
	switch c.Kind {
	case SLOUnset:
		return ""
	case SLOLatencyCriticalKind:
		return "latency-critical"
	case SLOBalancedKind:
		return "balanced"
	case SLOBatterySaverKind:
		return "battery-saver"
	case SLOCustomKind:
		return fmt.Sprintf("custom:%g,%g,%g,%g",
			c.Weights.Makespan, c.Weights.Throughput, c.Weights.Energy, c.Weights.Memory)
	}
	return fmt.Sprintf("slo(%d)", int(c.Kind))
}

// ParseSLOClass parses an SLO class name: "latency-critical", "balanced",
// "battery-saver", or "custom:<wMakespan>,<wThroughput>,<wEnergy>,<wMemory>"
// (e.g. "custom:1,0,2,0" weighs energy twice as heavily as makespan). The
// empty string parses to the unset class (scheduler default). Unknown names
// return an error wrapping ErrUnknownSLOClass.
func ParseSLOClass(s string) (SLOClass, error) {
	t := strings.ToLower(strings.TrimSpace(s))
	switch t {
	case "":
		return SLOClass{}, nil
	case "latency-critical", "latency":
		return SLOLatencyCritical, nil
	case "balanced":
		return SLOBalanced, nil
	case "battery-saver", "battery", "energy":
		return SLOBatterySaver, nil
	}
	if rest, ok := strings.CutPrefix(t, "custom:"); ok {
		parts := strings.Split(rest, ",")
		if len(parts) != 4 {
			return SLOClass{}, fmt.Errorf("%w: custom wants 4 comma-separated weights, got %q", ErrUnknownSLOClass, s)
		}
		var w [4]float64
		for i, p := range parts {
			v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil || v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
				// NaN fails neither err nor v < 0, and ±Inf parses cleanly;
				// both would poison selectWeighted's scores, so reject here.
				return SLOClass{}, fmt.Errorf("%w: bad custom weight %q", ErrUnknownSLOClass, p)
			}
			w[i] = v
		}
		return CustomSLO(Weights{Makespan: w[0], Throughput: w[1], Energy: w[2], Memory: w[3]}), nil
	}
	return SLOClass{}, fmt.Errorf("%w: %q (want latency-critical, balanced, battery-saver or custom:w,w,w,w)", ErrUnknownSLOClass, s)
}

// sloRank orders classes strictest-first for window resolution: a window
// mixing classes is planned for its most latency-sensitive member.
func sloRank(c SLOClass) int {
	switch c.Kind {
	case SLOLatencyCriticalKind:
		return 0
	case SLOCustomKind:
		return 1
	case SLOBalancedKind:
		return 2
	case SLOBatterySaverKind:
		return 3
	}
	return 4 // unset: weakest — any explicit class overrides it
}

// StrictestSLO resolves the class a shared planning window serves: the
// strictest (most latency-sensitive) class present, in the order
// latency-critical > custom > balanced > battery-saver. Unset classes are
// skipped; among equal-rank custom classes the first wins. All-unset
// resolves to the unset class (the caller applies its default).
func StrictestSLO(classes ...SLOClass) SLOClass {
	best := SLOClass{}
	bestRank := sloRank(best)
	for _, c := range classes {
		if r := sloRank(c); r < bestRank {
			best, bestRank = c, r
		}
	}
	return best
}

// Select picks the frontier point serving the class:
//
//   - latency-critical (and unset): the min-makespan point (ties: lower
//     candidate index). It has the single-objective plan's makespan and is
//     no worse on any other axis; it is that very plan unless another
//     candidate with the same makespan dominates it.
//   - battery-saver: the min-energy point (ties: lower makespan, then lower
//     candidate index).
//   - balanced / custom: the point minimising the weighted sum of
//     normalised axis positions (0 = frontier-best per axis).
//
// A nil or empty frontier returns nil.
func (f *Frontier) Select(class SLOClass) *FrontierPoint {
	if f == nil || len(f.Points) == 0 {
		return nil
	}
	switch class.Kind {
	case SLOBatterySaverKind:
		best := 0
		for i := 1; i < len(f.Points); i++ {
			a, b := f.Points[i].Objective, f.Points[best].Objective
			if a.EnergyJoules < b.EnergyJoules ||
				(a.EnergyJoules == b.EnergyJoules && a.Makespan < b.Makespan) {
				best = i
			}
		}
		return &f.Points[best]
	case SLOBalancedKind:
		return f.selectWeighted(Weights{Makespan: 1, Throughput: 1, Energy: 1, Memory: 1})
	case SLOCustomKind:
		return f.selectWeighted(class.Weights)
	}
	// Latency-critical and unset: Points is sorted by ascending makespan
	// with candidate-index tie-break, so the first point is the earliest
	// non-dominated candidate of minimal makespan.
	return &f.Points[0]
}

// selectWeighted scores every point by the weighted sum of its normalised
// axis positions and returns the minimum (ties: lower makespan, then lower
// candidate index — i.e. the earlier point in frontier order).
func (f *Frontier) selectWeighted(w Weights) *FrontierPoint {
	minO, maxO := f.Points[0].Objective, f.Points[0].Objective
	for _, p := range f.Points[1:] {
		o := p.Objective
		if o.Makespan < minO.Makespan {
			minO.Makespan = o.Makespan
		}
		if o.Makespan > maxO.Makespan {
			maxO.Makespan = o.Makespan
		}
		if o.Throughput < minO.Throughput {
			minO.Throughput = o.Throughput
		}
		if o.Throughput > maxO.Throughput {
			maxO.Throughput = o.Throughput
		}
		if o.EnergyJoules < minO.EnergyJoules {
			minO.EnergyJoules = o.EnergyJoules
		}
		if o.EnergyJoules > maxO.EnergyJoules {
			maxO.EnergyJoules = o.EnergyJoules
		}
		if o.PeakMemoryBytes < minO.PeakMemoryBytes {
			minO.PeakMemoryBytes = o.PeakMemoryBytes
		}
		if o.PeakMemoryBytes > maxO.PeakMemoryBytes {
			maxO.PeakMemoryBytes = o.PeakMemoryBytes
		}
	}
	// axis is one weighted normalised term of the score. A degenerate axis —
	// every point tied, hi == lo — contributes nothing regardless of weight:
	// deciding that BEFORE multiplying keeps a non-finite weight from
	// turning the tie into 0 × Inf = NaN, which would poison every score and
	// freeze selection on the first point (NaN compares false against
	// everything). Non-finite weights are dropped outright for the same
	// reason; ParseSLOClass rejects them, this guards programmatic callers.
	axis := func(wt, v, lo, hi float64) float64 {
		if wt == 0 || math.IsNaN(wt) || math.IsInf(wt, 0) || hi <= lo {
			return 0
		}
		return wt * (v - lo) / (hi - lo)
	}
	best, bestScore := 0, 0.0
	for i := range f.Points {
		o := f.Points[i].Objective
		score := axis(w.Makespan, float64(o.Makespan), float64(minO.Makespan), float64(maxO.Makespan)) +
			axis(w.Throughput, maxO.Throughput-o.Throughput+minO.Throughput, minO.Throughput, maxO.Throughput) +
			axis(w.Energy, o.EnergyJoules, minO.EnergyJoules, maxO.EnergyJoules) +
			axis(w.Memory, float64(o.PeakMemoryBytes), float64(minO.PeakMemoryBytes), float64(maxO.PeakMemoryBytes))
		if i == 0 || score < bestScore {
			best, bestScore = i, score
		}
	}
	return &f.Points[best]
}
