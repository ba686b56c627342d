// Package pipeline defines the schedule intermediate representation shared
// by the Hetero²Pipe planner and every baseline, the analytic bubble
// accounting of Eq. (3), and an event-driven executor that co-simulates
// pipeline stages under the shared-bus slowdown model — the substitute for
// running the schedule on physical silicon.
package pipeline

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// LayerRange is a contiguous slice of a model's layer chain, inclusive on
// both ends. An empty range (From > To) means the stage is skipped for that
// request (pass-through).
type LayerRange struct {
	From, To int
}

// Empty reports whether the range contains no layers.
func (r LayerRange) Empty() bool { return r.From > r.To }

// Len returns the number of layers in the range.
func (r LayerRange) Len() int {
	if r.Empty() {
		return 0
	}
	return r.To - r.From + 1
}

// Schedule is a fully specified pipeline plan: an ordered request sequence,
// each request's per-stage layer ranges, and the SoC whose processor order
// defines the stages. Stage k of every request executes on
// SoC.Processors[k]; request i's stage k depends on its stage k-1 and on the
// processor finishing request i-1's stage k — the classic pipeline
// precedence of constraint (8).
type Schedule struct {
	// SoC is the target platform.
	SoC *soc.SoC
	// Profiles holds one cost profile per request, in execution order.
	// Profiles[i].Model() is request i.
	Profiles []*profile.Profile
	// Stages[i][k] is the layer range request i runs on processor k.
	Stages [][]LayerRange
}

// NumRequests returns the request count |M|.
func (s *Schedule) NumRequests() int { return len(s.Profiles) }

// NumStages returns the pipeline depth K.
func (s *Schedule) NumStages() int { return s.SoC.NumProcessors() }

// StageTime returns the solo duration of request i's stage k (T_k^i of
// Definition 2 without the co-execution term): zero for empty stages,
// soc.InfDuration for infeasible ones.
func (s *Schedule) StageTime(i, k int) time.Duration {
	r := s.Stages[i][k]
	if r.Empty() {
		return 0
	}
	return s.Profiles[i].SliceTime(k, r.From, r.To)
}

// Validate checks structural soundness: every request covered exactly once
// by its stage ranges in order, and every non-empty stage supported on its
// processor.
func (s *Schedule) Validate() error {
	if err := s.validateShape(); err != nil {
		return err
	}
	for i, row := range s.Stages {
		if err := s.validateRow(i, row); err != nil {
			return err
		}
	}
	return nil
}

// validateShape checks what Validate checks before any row: a SoC, and one
// stage row per request.
func (s *Schedule) validateShape() error {
	if s.SoC == nil {
		return errors.New("pipeline: schedule has nil SoC")
	}
	if len(s.Stages) != len(s.Profiles) {
		return fmt.Errorf("pipeline: %d stage rows for %d requests", len(s.Stages), len(s.Profiles))
	}
	return nil
}

// validateRow checks row as request i's stage row: one range per stage,
// covering the request's layers exactly once and in order, every non-empty
// range supported on its processor.
func (s *Schedule) validateRow(i int, row []LayerRange) error {
	k := s.NumStages()
	if len(row) != k {
		return fmt.Errorf("pipeline: request %d has %d stages, want %d", i, len(row), k)
	}
	n := s.Profiles[i].NumLayers()
	next := 0
	for stage, r := range row {
		if r.Empty() {
			continue
		}
		if r.From != next {
			return fmt.Errorf("pipeline: request %d stage %d starts at layer %d, want %d",
				i, stage, r.From, next)
		}
		if r.To >= n {
			return fmt.Errorf("pipeline: request %d stage %d ends past layer %d", i, stage, n-1)
		}
		if !s.Profiles[i].Table(stage).Supported(r.From, r.To) {
			return fmt.Errorf("pipeline: request %d stage %d layers [%d,%d] unsupported on %s",
				i, stage, r.From, r.To, s.SoC.Processors[stage].ID)
		}
		next = r.To + 1
	}
	if next != n {
		return fmt.Errorf("pipeline: request %d covers %d of %d layers", i, next, n)
	}
	return nil
}

// Bubbles returns the total bubble time of Eq. (3): for every concurrent
// column j (the anti-diagonal of simultaneously executing slices), the sum
// over the column's members of (column max − member time). Columns are
// indexed j = 1..|M|+K−1; member (i, k) belongs to column j = i + k + 1
// (1-based) using solo stage times — the planner's analytic objective before
// contention enters.
func (s *Schedule) Bubbles() time.Duration {
	m, k := s.NumRequests(), s.NumStages()
	var total time.Duration
	for j := 0; j < m+k-1; j++ {
		var colMax time.Duration
		var members []time.Duration
		for i := 0; i < m; i++ {
			stage := j - i
			if stage < 0 || stage >= k {
				continue
			}
			t := s.StageTime(i, stage)
			if t == soc.InfDuration {
				continue
			}
			members = append(members, t)
			if t > colMax {
				colMax = t
			}
		}
		for _, t := range members {
			total += colMax - t
		}
	}
	return total
}

// Clone deep-copies the schedule's stage ranges (profiles and SoC are
// shared, immutable).
func (s *Schedule) Clone() *Schedule {
	// One flat backing array for all rows, so Clone is two allocations,
	// not m+1.
	_, stages := copyStages(nil, make([][]LayerRange, 0, len(s.Stages)), s.Stages)
	return &Schedule{SoC: s.SoC, Profiles: s.Profiles, Stages: stages}
}

// copyStages copies src's rows into one flat backing array, reusing the
// capacity of flat and of the row headers stages, and returns both. Each
// returned row is capped at its own length.
func copyStages(flat []LayerRange, stages, src [][]LayerRange) ([]LayerRange, [][]LayerRange) {
	total := 0
	for _, row := range src {
		total += len(row)
	}
	flat = slices.Grow(flat[:0], total)
	stages = slices.Grow(stages[:0], len(src))
	for _, row := range src {
		n := len(flat)
		flat = append(flat, row...)
		stages = append(stages, flat[n:len(flat):len(flat)])
	}
	return flat, stages
}
