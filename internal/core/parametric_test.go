package core

import (
	"math"
	"testing"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// PartitionParametric solves P1 by the classic parametric alternative to
// the DP: binary-search the bottleneck value T and greedily test whether
// the layer chain packs into the K ordered stages with every stage at most
// T. Greedy maximal filling is optimal for chain partitioning with
// range-monotone stage costs (a standard exchange argument), so the
// feasibility test is exact and the search converges to the same optimum as
// PartitionContext — it is an independently-derived cross-check of the DP
// (TestParametricMatchesDP) and its contender in BenchmarkPartitionParametric.
func PartitionParametric(p *profile.Profile) (pipeline.Cuts, float64, error) {
	n := p.NumLayers()
	k := p.NumProcessors()
	if n == 0 || k == 0 {
		return nil, 0, ErrInfeasiblePartition
	}

	// Upper bound: the best single-processor execution (always feasible
	// when any processor supports the whole chain); otherwise the sum of
	// per-stage maxima reached by greedy packing at +Inf budget.
	hi := math.Inf(1)
	for stage := 0; stage < k; stage++ {
		if v := sliceSeconds(p, stage, 0, n-1); v < hi {
			hi = v
		}
	}
	if math.IsInf(hi, 1) {
		// No single stage fits everything; take the achievable bottleneck
		// of greedy packing with unlimited budget as the upper bound.
		var ok bool
		hi, ok = packBottleneck(p, math.Inf(1))
		if !ok {
			return nil, 0, ErrInfeasiblePartition
		}
	}
	lo := 0.0
	for iter := 0; iter < 60; iter++ {
		mid := (lo + hi) / 2
		if _, feasible := packCuts(p, mid); feasible {
			hi = mid
		} else {
			lo = mid
		}
	}
	cuts, feasible := packCuts(p, hi)
	if !feasible {
		return nil, 0, ErrInfeasiblePartition
	}
	// Report the realised bottleneck of the final packing (tighter than
	// the search bound).
	var worst float64
	for stage := 0; stage < k; stage++ {
		if v := sliceSeconds(p, stage, cuts[stage], cuts[stage+1]-1); v > worst {
			worst = v
		}
	}
	return cuts, worst, nil
}

// packCuts greedily fills each stage up to budget seconds and reports the
// boundaries and whether all layers fit.
func packCuts(p *profile.Profile, budget float64) (pipeline.Cuts, bool) {
	n := p.NumLayers()
	k := p.NumProcessors()
	cuts := make(pipeline.Cuts, k+1)
	next := 0
	for stage := 0; stage < k; stage++ {
		cuts[stage] = next
		// Extend while the stage stays within budget; stage costs are
		// monotone in the right endpoint, so linear extension suffices.
		for next < n {
			if v := sliceSeconds(p, stage, cuts[stage], next); v > budget {
				break
			}
			next++
		}
	}
	cuts[k] = n
	if next != n {
		return nil, false
	}
	// The last stage's boundary must also be n; packCuts built stage
	// starts, so fix any trailing empty stages.
	return cuts, true
}

// packBottleneck packs greedily with unlimited budget and returns the
// realised bottleneck (used only to seed the upper bound when no single
// processor supports the whole chain).
func packBottleneck(p *profile.Profile, budget float64) (float64, bool) {
	cuts, ok := packCuts(p, budget)
	if !ok {
		return 0, false
	}
	var worst float64
	for stage := 0; stage+1 < len(cuts); stage++ {
		if v := sliceSeconds(p, stage, cuts[stage], cuts[stage+1]-1); v > worst {
			worst = v
		}
	}
	return worst, true
}

// BenchmarkPartitionParametric runs the binary-search partitioner on BERT
// over a Kirin 990, the root package's BenchmarkPartitionDP input.
func BenchmarkPartitionParametric(b *testing.B) {
	p, err := profile.New(soc.Kirin990(), model.MustByName(model.BERT))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := PartitionParametric(p); err != nil {
			b.Fatal(err)
		}
	}
}
