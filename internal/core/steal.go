package core

import (
	"encoding/binary"
	"math"
	"slices"
	"sync"

	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
)

// Vertical alignment (Algorithm 3). After horizontal partitioning optimises
// every model in isolation, neighbouring models' stage times are misaligned
// and the pipeline accumulates bubbles (Eq. 3). Work stealing moves layers
// across the stage boundaries of the non-critical models so their per-stage
// times approach the critical model's, which drains bubbles toward the tail
// of the pipeline; a final local search over the K processors removes the
// tail bubbles themselves.

// stageSecondsInto appends the per-stage solo durations of cuts on p to a
// caller-owned buffer — the alignment loops run once per window per
// candidate ordering, so they feed pooled vectors here instead of
// allocating.
func stageSecondsInto(dst []float64, p *profile.Profile, cuts pipeline.Cuts) []float64 {
	k := len(cuts) - 1
	for s := 0; s < k; s++ {
		dst = append(dst, sliceSeconds(p, s, cuts[s], cuts[s+1]-1))
	}
	return dst
}

// totalSeconds returns Σ_k T_k — the critical-path metric of Algorithm 3.
func totalSeconds(p *profile.Profile, cuts pipeline.Cuts) float64 {
	var sum float64
	k := len(cuts) - 1
	for s := 0; s < k; s++ {
		v := sliceSeconds(p, s, cuts[s], cuts[s+1]-1)
		if math.IsInf(v, 1) {
			return math.Inf(1)
		}
		sum += v
	}
	return sum
}

// stealScratch pools the per-window alignment vectors: the critical model's
// stage times, the per-model target vector, the trial cut buffer the
// boundary search walks and the alignment memo's key. One scratch serves
// one window's alignment; windows aligned in parallel each take their own.
type stealScratch struct {
	crit, target []float64
	trial        pipeline.Cuts
	key          []byte
}

var stealScratchPool = sync.Pool{New: func() any { return new(stealScratch) }}

// AlignWindow applies work stealing inside one contention window: profiles
// and cuts are the window's models (first slice = window models in order),
// critical is the index of the critical path within the window. Every other
// model's boundaries are adjusted layer-by-layer, in place, so its stage
// times track the critical model's stage times (the T_{k±j} − T_k^{i_c} → 0
// loops of Algorithm 3). Models after the critical path steal rightward
// (work flows toward later stages); models before it steal leftward. The
// cut vectors must not share backing arrays.
func AlignWindow(profiles []*profile.Profile, cuts []pipeline.Cuts, critical int) {
	alignWindow(profiles, nil, cuts, critical)
}

// alignWindow is AlignWindow with each model's alignment memo, when memos
// is not nil: a model whose memo is not nil holds the DP cuts of the table
// state the memo belongs to (see alignMemo). A nil memos slice, or a nil
// entry, aligns without a memo.
func alignWindow(profiles []*profile.Profile, memos []*alignMemo, cuts []pipeline.Cuts, critical int) {
	if critical < 0 || critical >= len(profiles) {
		return
	}
	scr := stealScratchPool.Get().(*stealScratch)
	scr.crit = stageSecondsInto(scr.crit[:0], profiles[critical], cuts[critical])
	crit := scr.crit
	k := len(crit)
	if cap(scr.target) < k {
		scr.target = make([]float64, k)
	} else {
		scr.target = scr.target[:k]
	}
	target := scr.target
	for i := range profiles {
		if i == critical {
			continue
		}
		// The Eq. (3) bubble columns are anti-diagonals: request i's stage
		// s co-executes with request i+1's stage s−1. So the model at
		// offset d from the critical path aligns its stage s to the
		// critical model's stage s+d (Algorithm 3's
		// T_{k−1}^{i_c+1} ≈ T_k^{i_c}), clamped at the pipeline ends.
		d := i - critical
		for s := 0; s < k; s++ {
			idx := s + d
			if idx < 0 {
				idx = 0
			}
			if idx >= k {
				idx = k - 1
			}
			target[s] = crit[idx]
		}
		var memo *alignMemo
		if memos != nil {
			memo = memos[i]
		}
		alignToTargetScratch(profiles[i], memo, cuts[i], target, i > critical, scr)
	}
	stealScratchPool.Put(scr)
}

// alignToTargetScratch greedily moves single layers across stage
// boundaries of out, in place, so the model's stage times approach target
// (in seconds, per stage), drawing its trial buffer from a caller-held
// scratch. rightward controls the sweep direction: true processes
// boundaries left-to-right (excess work flows to later stages), false the
// reverse. When memo is not nil, out holds the DP cuts of the table state
// it belongs to, so the result is a pure function of the state's tables,
// target and rightward: it is served from memo when held there, and stored
// there otherwise.
func alignToTargetScratch(p *profile.Profile, memo *alignMemo, out pipeline.Cuts, target []float64, rightward bool, scr *stealScratch) {
	var key []byte
	if memo != nil {
		key = scr.alignKey(target, rightward)
		if memo.get(key, out) {
			return
		}
	}
	k := len(out) - 1

	if cap(scr.trial) < len(out) {
		scr.trial = make(pipeline.Cuts, len(out))
	} else {
		scr.trial = scr.trial[:len(out)]
	}
	trial := scr.trial

	// Boundaries sweep left-to-right when stealing rightward, reversed
	// otherwise.
	b, step := 1, 1
	if !rightward {
		b, step = k-1, -1
	}
	for ; b >= 1 && b < k; b += step {
		// Boundary b separates stage b-1 (layers [out[b-1], out[b]-1]) and
		// stage b. Move it to minimise the deviation of stage b-1's time
		// from target[b-1], keeping both sides feasible.
		best := out[b]
		bestDev := boundaryDeviation(p, out, b, target)
		// Try moving left (shrink stage b-1) and right (grow stage b-1).
		for _, dir := range [2]int{-1, 1} {
			copy(trial, out)
			for {
				next := trial[b] + dir
				if next < trial[b-1] || next > trial[b+1] {
					break
				}
				trial[b] = next
				dev := boundaryDeviation(p, trial, b, target)
				if math.IsInf(dev, 1) {
					continue // pass through infeasible intermediate points
				}
				if dev < bestDev {
					bestDev = dev
					best = next
				}
			}
		}
		out[b] = best
	}
	if memo != nil {
		memo.put(key, out)
	}
}

// alignKey writes the alignment memo's key for target and rightward into
// scr.key: every target's float bits, then the direction.
func (scr *stealScratch) alignKey(target []float64, rightward bool) []byte {
	key := scr.key[:0]
	for _, v := range target {
		key = binary.LittleEndian.AppendUint64(key, math.Float64bits(v))
	}
	if rightward {
		key = append(key, 1)
	} else {
		key = append(key, 0)
	}
	scr.key = key
	return key
}

// maxAlignments bounds the alignments one table state's memo keeps, the
// way maxTableStates bounds the states: at most 67 distinct targets per
// state were seen on the serving benchmark's workloads. A full memo still
// serves what it holds and stores nothing more.
const maxAlignments = 128

// alignMemo memoizes a table state's Algorithm-3 alignments: the cuts the
// boundary walk reaches from the state's DP cuts toward a target vector in
// one direction, keyed by alignKey. It lives and dies with its state
// (tableState.align). Safe for concurrent use: the sweep's passes align in
// parallel.
type alignMemo struct {
	mu   sync.Mutex
	cuts map[string]pipeline.Cuts
}

// get copies the alignment held under key into out and reports whether
// there was one.
func (a *alignMemo) get(key []byte, out pipeline.Cuts) bool {
	a.mu.Lock()
	c, ok := a.cuts[string(key)]
	a.mu.Unlock()
	if ok {
		copy(out, c)
	}
	return ok
}

// put stores a copy of cuts under key, unless the memo is full.
func (a *alignMemo) put(key []byte, cuts pipeline.Cuts) {
	a.mu.Lock()
	if a.cuts == nil {
		a.cuts = make(map[string]pipeline.Cuts)
	}
	if len(a.cuts) < maxAlignments {
		a.cuts[string(key)] = slices.Clone(cuts)
	}
	a.mu.Unlock()
}

// boundaryDeviation scores how far the stages adjacent to boundary b are
// from their targets (absolute deviations, +Inf if either side infeasible).
func boundaryDeviation(p *profile.Profile, cuts pipeline.Cuts, b int, target []float64) float64 {
	left := sliceSeconds(p, b-1, cuts[b-1], cuts[b]-1)
	right := sliceSeconds(p, b, cuts[b], cuts[b+1]-1)
	if math.IsInf(left, 1) || math.IsInf(right, 1) {
		return math.Inf(1)
	}
	return math.Abs(left-target[b-1]) + math.Abs(right-target[b])
}

// CriticalIndex returns argmax_i Σ_k T_k^i over the window (Algorithm 3
// line 5).
func CriticalIndex(profiles []*profile.Profile, cuts []pipeline.Cuts) int {
	best, bestV := 0, math.Inf(-1)
	for i := range profiles {
		v := totalSeconds(profiles[i], cuts[i])
		if !math.IsInf(v, 1) && v > bestV {
			best, bestV = i, v
		}
	}
	return best
}

// WorkSteal slides the contention window (size k, step k — Algorithm 3
// line 15) over the whole ordered sequence and aligns each window. The
// windows are disjoint slices of the request sequence and each alignment
// writes only its own window's cut vectors.
func WorkSteal(profiles []*profile.Profile, cuts []pipeline.Cuts, k int) {
	workSteal(profiles, nil, cuts, k)
}

// workSteal is WorkSteal with each request's alignment memo, or nil memos
// (see alignWindow).
func workSteal(profiles []*profile.Profile, memos []*alignMemo, cuts []pipeline.Cuts, k int) {
	m := len(profiles)
	if k <= 0 {
		return
	}
	for u := 0; u < m; u += k {
		hi := min(u+k, m)
		var wMemos []*alignMemo
		if memos != nil {
			wMemos = memos[u:hi]
		}
		window, wCuts := profiles[u:hi], cuts[u:hi]
		alignWindow(window, wMemos, wCuts, CriticalIndex(window, wCuts))
	}
}
