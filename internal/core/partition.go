// Package core implements the Hetero²Pipe planner — the paper's primary
// contribution: Algorithm 1 (dynamic-programming horizontal model
// partitioning with monotonicity pruning and NPU-fallback awareness),
// Algorithm 2 (contention mitigation by re-ordering requests via the Linear
// Assignment Problem), Algorithm 3 (vertical alignment by work stealing plus
// tail-bubble local search), and the two-step Planner that composes them.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// ErrInfeasiblePartition is returned when no stage assignment covers the
// model (cannot happen on SoCs whose CPU supports every operator, but
// guarded for custom configurations).
var ErrInfeasiblePartition = errors.New("core: no feasible partition")

// sliceSeconds returns the slice cost f(k, i, j) in seconds, +Inf when the
// slice cannot run on stage k. An empty slice costs zero.
func sliceSeconds(p *profile.Profile, k, i, j int) float64 {
	if j < i {
		return 0
	}
	d := p.SliceTime(k, i, j)
	if d == soc.InfDuration {
		return math.Inf(1)
	}
	return d.Seconds()
}

// PartitionContext solves P1 (Eq. 4) for one model: choose stage boundaries
// minimising the maximum per-stage time over the SoC's capability-ordered
// processors, with empty stages allowed (this is how NPU-unsupported
// operators "fall back": the DP gives the NPU an empty or short supported
// prefix and the work flows to the next stage, exactly the fallback
// behaviour Sec. IV describes).
//
// The recurrence is the paper's optimal substructure
//
//	S*(j, k) = min_i max{ S*(i-1, k-1), T_k^e(i, j) }
//
// computed stage by stage. S*(·, k-1) is non-decreasing in its prefix, and
// the slice cost's exec-plus-launch part is non-increasing in the start
// index, so each cell searches for the crossing of the two and walks out
// from it only as far as a candidate can still win (see cellSearch). The
// search is exact even though the memory-copy term T^c(i) of Eq. (2) is not
// itself monotone in i (boundary tensor sizes vary along the chain): the
// bracket leaves the copy term out, so it bounds every candidate from below
// and the walk stops only where no candidate can still win.
//
// It returns the boundary vector and the bottleneck stage time in seconds.
// The DP checks ctx for cancellation between cell rows, so a long chain
// aborts promptly without finishing its table.
func PartitionContext(ctx context.Context, p *profile.Profile) (pipeline.Cuts, float64, error) {
	cuts, best, _, err := partitionPooled(ctx, p)
	return cuts, best, err
}

// cancelCheckStride is how many DP cells are filled between cancellation
// checks — frequent enough for sub-millisecond abort on big chains, sparse
// enough to keep ctx.Err out of the inner-loop cost.
const cancelCheckStride = 64

// dpScratch is the pooled K-row S* table of one unmemoized Algorithm-1
// DP. Every cell the DP reads is written first on every run, so reused
// buffers need no zeroing.
type dpScratch struct {
	rows [][]float64
}

var dpScratchPool = sync.Pool{New: func() any { return new(dpScratch) }}

// getDPScratch returns pooled scratch sized for an n-layer, k-stage DP,
// keeping every backing array it can reuse.
func getDPScratch(n, k int) *dpScratch {
	s := dpScratchPool.Get().(*dpScratch)
	if cap(s.rows) < k {
		old := s.rows[:cap(s.rows)]
		s.rows = make([][]float64, k)
		copy(s.rows, old)
	}
	s.rows = s.rows[:k]
	for i := range s.rows {
		if cap(s.rows[i]) < n+1 {
			s.rows[i] = make([]float64, n+1)
		}
		s.rows[i] = s.rows[i][:n+1]
	}
	return s
}

// partitionPooled runs the whole DP in pooled scratch and returns the cuts,
// the bottleneck and the number of DP cells evaluated (the figure behind
// Account.DPCells — base row plus every (stage, j) cell filled before
// completion or cancellation).
func partitionPooled(ctx context.Context, p *profile.Profile) (pipeline.Cuts, float64, uint64, error) {
	n := p.NumLayers()
	k := p.NumProcessors()
	if n == 0 || k == 0 {
		return nil, 0, 0, ErrInfeasiblePartition
	}
	scr := getDPScratch(n, k)
	defer dpScratchPool.Put(scr)
	cells, err := fillPartitionRows(ctx, p, scr.rows, 0)
	if err != nil {
		return nil, 0, cells, err
	}
	best := scr.rows[k-1][n]
	if math.IsInf(best, 1) {
		return nil, 0, cells, ErrInfeasiblePartition
	}
	cuts, err := backtrackCuts(p, scr.rows)
	return cuts, best, cells, err
}

// fillPartitionRows fills DP rows [from, k): rows[s][j+1] = S*(j, s), with
// rows[s][0] the empty prefix. The caller owns every row, sized n+1; rows
// below from must already hold their values. It returns the DP cells
// evaluated, and the context's error when cancelled between cells.
func fillPartitionRows(ctx context.Context, p *profile.Profile, rows [][]float64, from int) (uint64, error) {
	n := p.NumLayers()
	k := p.NumProcessors()
	var cells uint64
	if from == 0 {
		// Stage 0 base: prefix [0..j] entirely on stage 0 (or empty).
		rows[0][0] = 0
		for j := 0; j < n; j++ {
			rows[0][j+1] = sliceSeconds(p, 0, 0, j)
			cells++
		}
		from = 1
	}
	// One child span per DP stage row when tracing is armed. The nil check
	// (not just StartChild's internal one) keeps the untraced path from
	// allocating the attribute slice on every row.
	rowParent := obs.SpanFromContext(ctx)
	for stage := from; stage < k; stage++ {
		var row *obs.Span
		if rowParent != nil {
			row = rowParent.StartChild("dp_row",
				obs.Int("stage", int64(stage)), obs.Int("layers", int64(n)))
		}
		prev, dp := rows[stage-1], rows[stage]
		dp[0] = prev[0] // empty prefix stays empty
		cross := 0
		for j := 0; j < n; j++ {
			if j%cancelCheckStride == 0 && ctx.Err() != nil {
				row.End()
				return cells, cancelErr(ctx)
			}
			_, dp[j+1], cross = cellSearch(p, prev, stage, j, cross)
			cells++
		}
		row.End()
	}
	return cells, nil
}

// cellSearch returns DP cell (stage, j): the start index i ∈ [0, j+1] that
// minimises max(prev[i], sliceSeconds(stage, i, j)), i = j+1 being the
// empty slice, and the minimum. Ties resolve as a left-to-right scan with
// strict improvement would: the empty slice when it attains the minimum,
// else the smallest index that does.
//
// Two monotone lower bounds make the search exact without scanning. Every
// candidate is worth at least prev[i], which is non-decreasing in i, and at
// least lb(i) = ExecTime(stage, i, j) + launch in seconds, which is
// non-increasing in i (+Inf once the slice holds a layer the stage cannot
// run) and at most sliceSeconds because the copy-in term it leaves out is
// ≥ 0. So from any split point c:
//   - a walk right of c stops at the first prev[i] that reaches the best
//     value, since no candidate from there on is worth less;
//   - a walk left of c stops at the first lb(i) above the best value, or at
//     it while the empty slice holds the best, since a tie cannot displace
//     the empty slice and left of the stop only ties or worse remain.
//
// Any c gives the exact answer; the walks are shortest from the crossing,
// the first c with prev[c] ≥ lb(c), where the optimum sits. The crossing
// never moves left as j grows (lb only grows with j), so cellSearch
// gallops right from from — the previous cell's crossing, 0 on a row's
// first cell — and returns the crossing it finds for the next cell.
func cellSearch(p *profile.Profile, prev []float64, stage, j, from int) (int, float64, int) {
	bestI, bestV := j+1, math.Max(prev[j+1], 0) // empty slice candidate
	launch := p.Table(stage).Proc().LaunchOverhead
	// Gallop to bracket the crossing in [lo, hi): every index below lo is
	// short of it, hi reaches it or is j+1 (no crossing at or below j).
	lo, hi := from, j+1
	for step := 1; lo < hi; step *= 2 {
		i := min(lo+step-1, hi-1)
		if prev[i] >= execLowerBound(p, stage, i, j, launch) {
			hi = i
			break
		}
		lo = i + 1
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if prev[mid] < execLowerBound(p, stage, mid, j, launch) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo; i <= j && prev[i] < bestV; i++ {
		if v := math.Max(prev[i], sliceSeconds(p, stage, i, j)); v < bestV {
			bestI, bestV = i, v
		}
	}
	for i := lo - 1; i >= 0; i-- {
		lb := execLowerBound(p, stage, i, j, launch)
		if lb > bestV || (lb == bestV && bestI > j) {
			break
		}
		if v := math.Max(prev[i], sliceSeconds(p, stage, i, j)); v < bestV || (v == bestV && bestI <= j) {
			bestI, bestV = i, v
		}
	}
	return bestI, bestV, lo
}

// execLowerBound is cellSearch's lb(i): the slice cost of [i, j] on stage
// without its copy-in term, +Inf when the slice cannot run there.
func execLowerBound(p *profile.Profile, stage, i, j int, launch time.Duration) float64 {
	e := p.ExecTime(stage, i, j)
	if e == soc.InfDuration {
		return math.Inf(1)
	}
	return (e + launch).Seconds()
}

// backtrackCuts recovers the boundary vector from the K filled S* rows of
// a feasible table: cuts[s] is the first layer of stage s. Each stage's
// start is the split its cell chose, re-derived by searching that cell
// again over the row below. The search is exact from any starting point
// and breaks ties as the fill did, so the split is the fill's own; these
// searches are not counted as DP cells. An empty prefix puts every stage
// below it at layer 0.
func backtrackCuts(p *profile.Profile, rows [][]float64) (pipeline.Cuts, error) {
	n := p.NumLayers()
	k := p.NumProcessors()
	cuts := make(pipeline.Cuts, k+1)
	cuts[k] = n
	end := n // exclusive end of current stage's slice
	for stage := k - 1; stage >= 1; stage-- {
		start := 0
		if end > 0 {
			start, _, _ = cellSearch(p, rows[stage-1], stage, end-1, 0)
		}
		cuts[stage] = start
		end = start
	}
	if !pipeline.ValidCuts(cuts, n, k) {
		return nil, fmt.Errorf("core: internal: backtracked cuts %v invalid", []int(cuts))
	}
	return cuts, nil
}
