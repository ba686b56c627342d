package pipeline

import (
	"fmt"

	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// Cuts are the K+1 stage boundaries of one request: stage k runs layers
// [Cuts[k], Cuts[k+1]-1]. Cuts[0] = 0 and Cuts[K] = n; equal neighbours mean
// an empty (skipped) stage. This is the paper's partition
// P = {p_1, …, p_{K-1}} (Definition 1) with the outer boundaries made
// explicit.
type Cuts []int

// RangesOf converts boundaries into per-stage layer ranges.
func (c Cuts) RangesOf() []LayerRange {
	out := make([]LayerRange, len(c)-1)
	c.rangesInto(out)
	return out
}

// rangesInto writes the per-stage layer ranges of c into out, which holds
// one entry per stage.
func (c Cuts) rangesInto(out []LayerRange) {
	for k := range out {
		out[k] = LayerRange{From: c[k], To: c[k+1] - 1}
	}
}

// ValidCuts reports whether c is a well-formed boundary vector for a model
// with n layers on a K-stage pipeline.
func ValidCuts(c Cuts, n, k int) bool {
	if len(c) != k+1 || c[0] != 0 || c[k] != n {
		return false
	}
	for i := 1; i <= k; i++ {
		if c[i] < c[i-1] {
			return false
		}
	}
	return true
}

// FromCuts assembles a schedule from per-request stage boundaries. cuts[i]
// must be a valid boundary vector for profiles[i].
func FromCuts(s *soc.SoC, profiles []*profile.Profile, cuts []Cuts) (*Schedule, error) {
	if err := checkCuts(s, profiles, cuts); err != nil {
		return nil, err
	}
	sched := &Schedule{
		SoC:      s,
		Profiles: profiles,
		Stages:   make([][]LayerRange, len(profiles)),
	}
	for i, c := range cuts {
		sched.Stages[i] = c.RangesOf()
	}
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	return sched, nil
}

// checkCuts checks what FromCuts checks before assembling rows: one
// boundary vector per profile, each valid for its profile on s.
func checkCuts(s *soc.SoC, profiles []*profile.Profile, cuts []Cuts) error {
	if len(profiles) != len(cuts) {
		return fmt.Errorf("pipeline: %d profiles, %d cut vectors", len(profiles), len(cuts))
	}
	k := s.NumProcessors()
	for i, c := range cuts {
		if !ValidCuts(c, profiles[i].NumLayers(), k) {
			return invalidCuts(i, c)
		}
	}
	return nil
}

// invalidCuts is the error FromCuts reports for request i's cuts c.
func invalidCuts(i int, c Cuts) error {
	return fmt.Errorf("pipeline: request %d has invalid cuts %v", i, []int(c))
}

// SingleProcessor returns the boundary vector that places all n layers on
// the 0-based stage k of a K-stage pipeline (all other stages empty).
func SingleProcessor(n, k, stages int) Cuts {
	c := make(Cuts, stages+1)
	for s := 1; s <= stages; s++ {
		if s > k {
			c[s] = n
		}
	}
	return c
}
