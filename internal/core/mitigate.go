package core

import (
	"math"
	"strconv"
	"sync"

	"hetero2pipe/internal/contention"
	"hetero2pipe/internal/lap"
)

// maxMitigationRounds bounds the Algorithm-2 while-loop; each round strictly
// reduces conflicts or terminates, so this is a safety net only.
const maxMitigationRounds = 16

// Mitigate implements Algorithm 2: re-order the request sequence so that
// high-contention (ℍ) requests are at least K apart (one contention window,
// Definition 4), by relocating low-contention (𝕃) requests in between at
// minimum total displacement cost. Following Property 3, a conflicting ℍ
// pair at distance d needs K−d 𝕃 requests moved between them; each
// relocation removes an 𝕃 from its position and re-inserts it directly
// before the later ℍ of the pair. The batch assignment of 𝕃 sources to
// insertion slots is the Linear Assignment Problem (P3, Eq. 9) with the
// Eq. (10) costs, solved by Kuhn–Munkres.
//
// classes[i] labels the request at original position i; k is the pipeline
// depth (the contention-window span). It returns a permutation: order[p] is
// the original index of the request now at position p. When conflicts
// cannot be fully resolved (not enough eligible 𝕃), the best-effort order
// after the final round is returned, matching the paper's stop condition
// ("stop until ... there is no sufficient 𝕃 for selection").
func Mitigate(classes []contention.Class, k int) []int {
	m := len(classes)
	order := make([]int, m)
	for i := range order {
		order[i] = i
	}
	if m == 0 || k <= 1 {
		return order
	}
	cls := make([]contention.Class, m)
	copy(cls, classes)

	for round := 0; round < maxMitigationRounds; round++ {
		conflicts := conflictPositions(cls, k)
		if len(conflicts) == 0 {
			return order
		}
		lows := lowPositions(cls)
		if len(lows) == 0 {
			return order
		}
		// The Eq. (10) cost matrix is built against the round's frozen class
		// sequence, so the nearest-ℍ scans relocationCost repeats per cell
		// are memoized once into neighbour tables (O(m) instead of
		// O(|𝕃|·|ℋ|·m) position scans per round).
		leftH, rightH := nearestHighTables(cls)
		cost := make([][]float64, len(lows))
		feasibleAny := false
		for li, i := range lows {
			cost[li] = make([]float64, len(conflicts))
			for cj, j := range conflicts {
				cost[li][cj] = relocationCostTab(cls, k, i, j, leftH, rightH)
				if !math.IsInf(cost[li][cj], 1) {
					feasibleAny = true
				}
			}
		}
		if !feasibleAny {
			return order
		}
		_, colTo, _, err := lap.Solve(cost)
		if err != nil {
			// No complete assignment avoids forbidden moves: resolve
			// conflicts greedily one at a time this round.
			colTo = greedyAssign(cost)
		}
		// Apply one relocation per conflict, re-validating against the
		// mutating sequence (earlier moves shift positions).
		progressed := false
		for cj, li := range colTo {
			if li == lap.Unassigned {
				continue
			}
			src := lows[li]
			dst := conflicts[cj]
			// Track how previously applied moves shifted these positions.
			src, dst = currentPositions(cls, order, src, dst)
			if src < 0 || dst < 0 {
				continue
			}
			if math.IsInf(relocationCost(cls, k, src, dst), 1) {
				continue
			}
			relocate(cls, order, src, dst)
			progressed = true
		}
		if !progressed {
			return order
		}
	}
	return order
}

// currentPositions re-validates raw indices after in-round mutations: the
// source must still hold an 𝕃 and the destination an ℍ; otherwise the move
// is dropped (it will be reconsidered next round).
func currentPositions(cls []contention.Class, order []int, src, dst int) (int, int) {
	if src < 0 || src >= len(cls) || dst < 0 || dst >= len(cls) {
		return -1, -1
	}
	if cls[src] != contention.Low || cls[dst] != contention.High {
		return -1, -1
	}
	return src, dst
}

// relocate removes the element at src and re-inserts it directly before
// dst, shifting everything in between (both cls and order move together).
func relocate(cls []contention.Class, order []int, src, dst int) {
	c, o := cls[src], order[src]
	if src < dst {
		// Element moves right: insert before dst means position dst-1
		// after removal.
		copy(cls[src:], cls[src+1:dst])
		copy(order[src:], order[src+1:dst])
		cls[dst-1], order[dst-1] = c, o
	} else {
		// Element moves left: insert at dst, shifting [dst, src) right.
		copy(cls[dst+1:src+1], cls[dst:src])
		copy(order[dst+1:src+1], order[dst:src])
		cls[dst], order[dst] = c, o
	}
}

// conflictPositions returns the positions of ℍ requests that sit within one
// contention window (distance < k) of a preceding ℍ — the |ℋ_j| ≥ 2
// condition of Algorithm 2.
func conflictPositions(cls []contention.Class, k int) []int {
	var out []int
	prevHigh := -1
	for p, c := range cls {
		if c != contention.High {
			continue
		}
		if prevHigh >= 0 && p-prevHigh < k {
			out = append(out, p)
		}
		prevHigh = p
	}
	return out
}

// lowPositions returns the positions currently holding 𝕃 requests.
func lowPositions(cls []contention.Class) []int {
	var out []int
	for p, c := range cls {
		if c == contention.Low {
			out = append(out, p)
		}
	}
	return out
}

// relocationCost returns the Eq. (10) assignment cost of moving the 𝕃 at
// position i to sit directly before the conflicting ℍ at position j: the
// displacement |j − i|, or +Inf when
//   - i already lies inside j's contention window (the move cannot widen
//     the ℍ separation), or
//   - removing the 𝕃 from i would itself bring two ℍ within one window
//     (the "i → |ℋ|_j ⟹ |ℋ|_i ≥ 2" condition).
func relocationCost(cls []contention.Class, k, i, j int) float64 {
	if i < 0 || i >= len(cls) || j < 0 || j >= len(cls) {
		return math.Inf(1)
	}
	// Nearest ℍ on each side of i, scanned directly: this path runs after
	// in-round relocations have mutated cls, when the memoized tables of
	// the matrix-construction path would be stale.
	left, right := -1, -1
	for p := i - 1; p >= 0; p-- {
		if cls[p] == contention.High {
			left = p
			break
		}
	}
	for p := i + 1; p < len(cls); p++ {
		if cls[p] == contention.High {
			right = p
			break
		}
	}
	return relocationCostWith(cls, k, i, j, left, right)
}

// nearestHighTables precomputes, for every position, the nearest ℍ strictly
// left and strictly right (-1 when none) — the per-round memoization of the
// scans relocationCost would repeat for every cost-matrix cell.
func nearestHighTables(cls []contention.Class) (leftH, rightH []int) {
	m := len(cls)
	leftH = make([]int, m)
	rightH = make([]int, m)
	last := -1
	for p := 0; p < m; p++ {
		leftH[p] = last
		if cls[p] == contention.High {
			last = p
		}
	}
	last = -1
	for p := m - 1; p >= 0; p-- {
		rightH[p] = last
		if cls[p] == contention.High {
			last = p
		}
	}
	return leftH, rightH
}

// relocationCostTab is relocationCost against precomputed neighbour tables
// (valid only while cls is unchanged since nearestHighTables ran).
func relocationCostTab(cls []contention.Class, k, i, j int, leftH, rightH []int) float64 {
	if i < 0 || i >= len(cls) || j < 0 || j >= len(cls) {
		return math.Inf(1)
	}
	return relocationCostWith(cls, k, i, j, leftH[i], rightH[i])
}

// relocationCostWith applies the Eq. (10) feasibility rules given the
// nearest ℍ on each side of i.
func relocationCostWith(cls []contention.Class, k, i, j, left, right int) float64 {
	if cls[i] != contention.Low || cls[j] != contention.High {
		return math.Inf(1)
	}
	d := i - j
	if d < 0 {
		d = -d
	}
	if d < k {
		return math.Inf(1)
	}
	// Would removing the 𝕃 at i create a new conflict there? Removal
	// shrinks the flanking ℍ pair's gap by one.
	if left >= 0 && right >= 0 && (right-left-1) < k {
		return math.Inf(1)
	}
	return float64(d)
}

// greedyAssign resolves columns cheapest-first when a complete LAP
// assignment is infeasible, using each row at most once.
func greedyAssign(cost [][]float64) []int {
	if len(cost) == 0 {
		return nil
	}
	nc := len(cost[0])
	colTo := make([]int, nc)
	for j := range colTo {
		colTo[j] = lap.Unassigned
	}
	usedRow := make([]bool, len(cost))
	for j := 0; j < nc; j++ {
		best, bestC := lap.Unassigned, math.Inf(1)
		for i := range cost {
			if !usedRow[i] && cost[i][j] < bestC {
				best, bestC = i, cost[i][j]
			}
		}
		if best != lap.Unassigned && !math.IsInf(bestC, 1) {
			colTo[j] = best
			usedRow[best] = true
		}
	}
	return colTo
}

// mitigationMemo caches Algorithm-2 assignments by content: Mitigate is a
// pure function of (class vector, stage count), so entries never go stale
// — not across degradation events, not across SoC swaps. Bounded by reset:
// the key space in practice is tiny (class vectors are at most
// MaxWindow long over a two-letter alphabet).
type mitigationMemo struct {
	mu sync.Mutex
	m  map[string][]int
}

// mitigationMemoCap bounds the memo; on overflow the map is reset (the
// working set re-fills within one window).
const mitigationMemoCap = 512

func newMitigationMemo() *mitigationMemo {
	return &mitigationMemo{m: make(map[string][]int)}
}

// mitigate returns Mitigate(classes, k), memoized. The returned permutation
// is shared and must not be mutated (composeOrders only reads it). The key
// is built in a stack buffer for the common window size, and a hit looks it
// up without converting it to a string, so only a miss allocates the key.
func (mm *mitigationMemo) mitigate(classes []contention.Class, k int) []int {
	var buf [64]byte
	key := buf[:0]
	for _, c := range classes {
		key = append(key, byte('0'+int(c)))
	}
	key = strconv.AppendInt(append(key, '|'), int64(k), 10)
	mm.mu.Lock()
	if v, ok := mm.m[string(key)]; ok {
		mm.mu.Unlock()
		return v
	}
	mm.mu.Unlock()
	v := Mitigate(classes, k)
	mm.mu.Lock()
	if len(mm.m) >= mitigationMemoCap {
		mm.m = make(map[string][]int)
	}
	mm.m[string(key)] = v
	mm.mu.Unlock()
	return v
}
