package core

import (
	"math"
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
// stage times, the per-model target vector, and the trial cut buffer the
// boundary search walks. One scratch serves one AlignWindow call; windows
// aligned in parallel each take their own.
type stealScratch struct {
	crit, target []float64
	trial        pipeline.Cuts
}

var stealScratchPool = sync.Pool{New: func() any { return new(stealScratch) }}

// AlignWindow applies work stealing inside one contention window: profiles
// and cuts are the window's models (first slice = window models in order),
// critical is the index of the critical path within the window. Every other
// model's boundaries are adjusted layer-by-layer so its stage times track
// the critical model's stage times (the T_{k±j} − T_k^{i_c} → 0 loops of
// Algorithm 3). Models after the critical path steal rightward (work flows
// toward later stages); models before it steal leftward.
func AlignWindow(profiles []*profile.Profile, cuts []pipeline.Cuts, critical int) {
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
		cuts[i] = alignToTargetScratch(profiles[i], cuts[i], target, i > critical, scr)
	}
	stealScratchPool.Put(scr)
}

// alignToTargetScratch greedily moves single layers across stage
// boundaries so the model's stage times approach target (in seconds, per
// stage), drawing its trial buffer from a caller-held scratch. rightward
// controls the sweep direction: true processes boundaries left-to-right
// (excess work flows to later stages), false the reverse. The returned cut
// vector is always freshly allocated (it replaces an entry of the caller's
// cuts slice and outlives the scratch).
func alignToTargetScratch(p *profile.Profile, cuts pipeline.Cuts, target []float64, rightward bool, scr *stealScratch) pipeline.Cuts {
	k := len(cuts) - 1
	out := make(pipeline.Cuts, len(cuts))
	copy(out, cuts)

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
	return out
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
	m := len(profiles)
	if k <= 0 {
		return
	}
	for u := 0; u < m; u += k {
		hi := min(u+k, m)
		window := profiles[u:hi]
		wCuts := cuts[u:hi]
		AlignWindow(window, wCuts, CriticalIndex(window, wCuts))
	}
}
