package core

import (
	"context"
	"math"
	"strconv"
	"strings"
	"sync"

	"hetero2pipe/internal/contention"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
)

// Incremental replanning (Options.IncrementalReplan). A degradation event
// touching processor set P invalidates only the affected (model, processor)
// cost tables; the cost cache already exploits that, but every replan still
// refills each model's Algorithm-1 DP from row zero. The table here lifts
// the same partial-invalidation granularity into the DP itself:
//
// The stage-k row S*(·, k) of the recurrence
//
//	S*(j, k) = min_i max{ S*(i-1, k-1), T_k^e(i, j) }
//
// reads only processor k's cost table and the stage-(k−1) row. Processors
// are identified with stages in capability order, so every row below
// min(P) is computed from cost tables the event did not touch — and since
// the cost cache shares unaffected *profile.Table objects across
// re-assembled profiles, those rows are bit-for-bit identical to what a
// from-scratch refill would produce. The memo therefore keeps every
// per-stage row plus the choice tables, and a replan resumes the DP at the
// first affected stage, reusing the clean prefix verbatim. Bus-only epochs
// (bandwidth squeezes) reuse whole partitions: solo tables are
// bus-capacity independent.
//
// Two validity signals compose:
//
//   - the SoC epoch journal (soc.SoC.AffectedSince) maps the entry's epoch
//     delta to the affected processor set, exactly the set the stream
//     scheduler fed to InvalidateProcessors;
//   - table identity: before reusing rows [0, resume) the memo verifies
//     that each of those stages' *profile.Table pointers is unchanged. This
//     is the authoritative guard — it also covers caller-built profiles
//     that never went through the planner's cost cache, and journal
//     eviction or manual BumpEpoch (both of which answer "unknown" and
//     degrade to a full refill).
//
// Entries are immutable once published: a resume allocates fresh rows for
// the recomputed stages and shares the read-only prefix, so concurrent
// planning fan-outs never observe a half-written table. The memo survives
// InvalidateProcessors (that is its purpose — the journal reconciles) and
// is dropped by InvalidateCache alongside everything else.

// partitionEntry is one model's memoized DP state.
type partitionEntry struct {
	// model is the structural identity guard behind the name-based key.
	model *model.Model
	// epoch is the SoC degradation epoch the last recomputed stage was
	// filled at.
	epoch uint64
	// tables[s] is the cost-table object stage s's row was computed
	// against — the pointer-identity reuse guard.
	tables []*profile.Table
	// rows[s][j+1] = S*(j, s); rows[s][0] is the empty prefix.
	rows [][]float64
	// choice[s][j+1] is the start layer stage s chose for prefix j.
	choice [][]int
	// cuts/best are the backtracked result; cuts is nil when best is +Inf
	// (no feasible partition at this epoch — memoized so retries at the
	// same epoch fail fast and recovery events resume instead of refilling).
	cuts pipeline.Cuts
	best float64
}

// partitionMemo maps cacheKey(model) → the model's memoized DP state. All
// methods are safe for concurrent use.
type partitionMemo struct {
	mu      sync.Mutex
	entries map[string]*partitionEntry
}

func newPartitionMemo() *partitionMemo {
	return &partitionMemo{entries: make(map[string]*partitionEntry)}
}

func (pm *partitionMemo) lookup(key string) *partitionEntry {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.entries[key]
}

func (pm *partitionMemo) store(key string, e *partitionEntry) {
	pm.mu.Lock()
	pm.entries[key] = e
	pm.mu.Unlock()
}

func (pm *partitionMemo) invalidate() {
	pm.mu.Lock()
	pm.entries = make(map[string]*partitionEntry)
	pm.mu.Unlock()
}

// resumeStage decides how much of a memo entry survives for profile p at
// the planner's current epoch: stages [0, resume) are reusable. k is the
// stage count; resume == k means the whole partition (rows, cuts, best) is
// still valid.
func (pl *Planner) resumeStage(e *partitionEntry, p *profile.Profile, k int) int {
	resume := k
	if e.epoch != pl.soc.Epoch() {
		procs, _, ok := pl.soc.AffectedSince(e.epoch)
		switch {
		case !ok:
			resume = 0 // unknown delta: assume everything moved
		case len(procs) > 0:
			resume = procs[0] // sorted ascending: first affected stage
		}
		// Bus-only delta: solo tables unaffected, resume stays k.
	}
	// Authoritative guard: stage s's row depends on the tables of stages
	// ≤ s, so reuse requires pointer identity across the whole prefix.
	for s := 0; s < resume; s++ {
		if e.tables[s] != p.Table(s) {
			return s
		}
	}
	return resume
}

// partitionMemoized is Planner.partition with the DP memo: it reuses or
// resumes the memoized table when the epoch journal and table identity
// allow, and refills from scratch otherwise — byte-identical output either
// way (the differential suite pins it). Runs under a "partition" span
// carrying dp_cells and, when anything was reused, a resume_stage
// attribute.
func (pl *Planner) partitionMemoized(ctx context.Context, p *profile.Profile) (pipeline.Cuts, float64, error) {
	n := p.NumLayers()
	k := p.NumProcessors()
	if n == 0 || k == 0 {
		return nil, 0, ErrInfeasiblePartition
	}
	var sp *obs.Span
	if obs.TracingEnabled(ctx) {
		ctx, sp = obs.StartSpan(ctx, "partition", obs.Str("model", p.Model().Name))
	}

	key := cacheKey(p.Model())
	entry := pl.partMemo.lookup(key)
	resume := 0
	if entry != nil && sameModel(entry.model, p.Model()) &&
		len(entry.rows) == k && len(entry.tables) == k && len(entry.rows[0]) == n+1 {
		resume = pl.resumeStage(entry, p, k)
	} else {
		entry = nil
	}

	if entry != nil && resume == k {
		// Whole partition reused: same-epoch repeat window, or a bus-only
		// epoch delta. Zero DP cells evaluated.
		pl.incrReuse.Add(1)
		pl.mIncrReuse.Inc()
		sp.SetAttrs(obs.Int("dp_cells", 0), obs.Int("resume_stage", int64(k)))
		sp.End()
		if entry.epoch != pl.soc.Epoch() {
			// Re-anchor the entry so the next lookup's journal walk starts
			// from the current epoch (the journal is bounded).
			pl.partMemo.store(key, &partitionEntry{
				model: entry.model, epoch: pl.soc.Epoch(), tables: entry.tables,
				rows: entry.rows, choice: entry.choice, cuts: entry.cuts, best: entry.best,
			})
		}
		if math.IsInf(entry.best, 1) {
			return nil, 0, ErrInfeasiblePartition
		}
		return append(pipeline.Cuts(nil), entry.cuts...), entry.best, nil
	}

	// Refill stages [resume, k), sharing the clean prefix rows read-only.
	rows := make([][]float64, k)
	choice := make([][]int, k)
	for s := 0; s < resume; s++ {
		rows[s] = entry.rows[s]
		choice[s] = entry.choice[s]
	}
	cells, err := fillPartitionRows(ctx, p, rows, choice, resume)
	pl.dpCells.Add(cells)
	pl.mDPCells.Add(cells)
	sp.SetAttrs(obs.Int("dp_cells", int64(cells)))
	if resume > 0 {
		pl.incrReuse.Add(1)
		pl.mIncrReuse.Inc()
		sp.SetAttrs(obs.Int("resume_stage", int64(resume)))
	}
	sp.End()
	if err != nil {
		return nil, 0, err
	}

	tables := make([]*profile.Table, k)
	for s := 0; s < k; s++ {
		tables[s] = p.Table(s)
	}
	fresh := &partitionEntry{
		model: p.Model(), epoch: pl.soc.Epoch(), tables: tables,
		rows: rows, choice: choice, best: rows[k-1][n],
	}
	if math.IsInf(fresh.best, 1) {
		pl.partMemo.store(key, fresh)
		return nil, 0, ErrInfeasiblePartition
	}
	cuts, best, err := backtrackCuts(p, choice, fresh.best)
	if err != nil {
		return nil, 0, err
	}
	fresh.cuts = append(pipeline.Cuts(nil), cuts...)
	pl.partMemo.store(key, fresh)
	return cuts, best, nil
}

// fillPartitionRows fills DP rows [from, k) of the row-retaining table —
// the same recurrence, cell order, cell search and cancellation cadence as
// partitionTable, but every stage's row is kept (the memo's raw material)
// instead of rolling two buffers. Rows below from must already be
// populated; rows at or above from are allocated here. Returns the DP
// cells evaluated.
func fillPartitionRows(ctx context.Context, p *profile.Profile, rows [][]float64, choice [][]int, from int) (uint64, error) {
	n := p.NumLayers()
	k := p.NumProcessors()
	var cells uint64
	for s := from; s < k; s++ {
		rows[s] = make([]float64, n+1)
		choice[s] = make([]int, n+1)
	}
	if from == 0 {
		rows[0][0] = 0
		choice[0][0] = 0
		for j := 0; j < n; j++ {
			rows[0][j+1] = sliceSeconds(p, 0, 0, j)
			choice[0][j+1] = 0
			cells++
		}
		from = 1
	}
	rowParent := obs.SpanFromContext(ctx)
	for stage := from; stage < k; stage++ {
		var row *obs.Span
		if rowParent != nil {
			row = rowParent.StartChild("dp_row",
				obs.Int("stage", int64(stage)), obs.Int("layers", int64(n)))
		}
		prev, dp := rows[stage-1], rows[stage]
		dp[0] = prev[0]
		choice[stage][0] = 0
		cross := 0
		for j := 0; j < n; j++ {
			if j%cancelCheckStride == 0 && ctx.Err() != nil {
				row.End()
				return cells, cancelErr(ctx)
			}
			choice[stage][j+1], dp[j+1], cross = cellSearch(p, prev, stage, j, cross)
			cells++
		}
		row.End()
	}
	return cells, nil
}

// IncrementalReuse reports the lifetime count of partitions served from the
// incremental-replanning memo — fully reused or resumed mid-table. Always
// zero when Options.IncrementalReplan is off.
func (pl *Planner) IncrementalReuse() uint64 { return pl.incrReuse.Load() }

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

func (mm *mitigationMemo) mitigate(classes []contention.Class, k int) []int {
	var b strings.Builder
	b.Grow(len(classes) + 8)
	for _, c := range classes {
		b.WriteByte(byte('0' + int(c)))
	}
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(k))
	key := b.String()
	mm.mu.Lock()
	if v, ok := mm.m[key]; ok {
		mm.mu.Unlock()
		return v
	}
	mm.mu.Unlock()
	v := Mitigate(classes, k)
	mm.mu.Lock()
	if len(mm.m) >= mitigationMemoCap {
		mm.m = make(map[string][]int)
	}
	mm.m[key] = v
	mm.mu.Unlock()
	return v
}

// mitigate routes through the content memo when incremental replanning is
// on. The returned permutation is shared and must not be mutated
// (composeOrders only reads it).
func (pl *Planner) mitigate(classes []contention.Class, k int) []int {
	if pl.lapMemo == nil {
		return Mitigate(classes, k)
	}
	return pl.lapMemo.mitigate(classes, k)
}
