// Package baseline implements the comparison schemes of the paper's
// evaluation (Sec. VI-A): vanilla MNN serial CPU execution, Pipe-it
// CPU-cluster pipelining, Band's NPU-first greedy coordination with operator
// fallback, plus the exhaustive-search and simulated-annealing references of
// the Fig. 8 ablation. Every baseline emits a pipeline.Schedule so all
// schemes execute under the identical simulator and slowdown model.
package baseline

import (
	"errors"
	"fmt"

	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// errNoProcessor is returned when a required processor kind is missing.
var errNoProcessor = errors.New("baseline: required processor not present")

// SerialMNN returns the vanilla MNN baseline: every request executes whole
// on the big CPU cluster, one after another — the "canonical CPU-centric
// implementation with serial execution" the paper measures 4–8× against.
func SerialMNN(s *soc.SoC, profiles []*profile.Profile) (*pipeline.Schedule, error) {
	bigs := s.ProcessorsOfKind(soc.KindCPUBig)
	if len(bigs) == 0 {
		return nil, fmt.Errorf("%w: CPU big cluster", errNoProcessor)
	}
	stage := bigs[0]
	k := s.NumProcessors()
	cuts := make([]pipeline.Cuts, len(profiles))
	for i, p := range profiles {
		cuts[i] = pipeline.SingleProcessor(p.NumLayers(), stage, k)
	}
	return pipeline.FromCuts(s, profiles, cuts)
}

// PipeIt returns the Pipe-it baseline adapted per Sec. VI-A: a two-stage
// pipeline over the big and small CPU clusters only (the "fastest core
// combination of four Big and four Small cores", scheduled per cluster to
// avoid the Fig. 10 intra-cluster thrashing), with each model's split point
// found by local search on the bottleneck — Pipe-it's planning strategy.
func PipeIt(s *soc.SoC, profiles []*profile.Profile) (*pipeline.Schedule, error) {
	bigs := s.ProcessorsOfKind(soc.KindCPUBig)
	smalls := s.ProcessorsOfKind(soc.KindCPUSmall)
	if len(bigs) == 0 || len(smalls) == 0 {
		return nil, fmt.Errorf("%w: CPU clusters", errNoProcessor)
	}
	big, small := bigs[0], smalls[0]
	k := s.NumProcessors()
	cuts := make([]pipeline.Cuts, len(profiles))
	for i, p := range profiles {
		split := localSearchSplit(p, big, small)
		c := make(pipeline.Cuts, k+1)
		for st := 1; st <= k; st++ {
			switch {
			case st <= big:
				c[st] = 0
			case st <= small:
				c[st] = split
			default:
				c[st] = p.NumLayers()
			}
		}
		cuts[i] = c
	}
	return pipeline.FromCuts(s, profiles, cuts)
}

// localSearchSplit hill-climbs the big/small boundary to minimise the
// bottleneck stage time, restarting from a few seeds the way Pipe-it's
// design-space exploration does.
func localSearchSplit(p *profile.Profile, big, small int) int {
	n := p.NumLayers()
	bottleneck := func(split int) float64 {
		a := p.SliceTime(big, 0, split-1)
		b := p.SliceTime(small, split, n-1)
		av, bv := a.Seconds(), b.Seconds()
		if split == 0 {
			av = 0
		}
		if split == n {
			bv = 0
		}
		if av > bv {
			return av
		}
		return bv
	}
	best, bestV := n, bottleneck(n) // all on big by default
	for _, seed := range []int{n / 4, n / 2, 3 * n / 4, n} {
		cur := seed
		curV := bottleneck(cur)
		for {
			improved := false
			for _, cand := range []int{cur - 1, cur + 1} {
				if cand < 0 || cand > n {
					continue
				}
				if v := bottleneck(cand); v < curV {
					cur, curV = cand, v
					improved = true
				}
			}
			if !improved {
				break
			}
		}
		if curV < bestV {
			best, bestV = cur, curV
		}
	}
	return best
}

// Band returns the Band baseline: NPU-first greedy coordination. Each
// request's maximal NPU-supported prefix runs on the NPU; the remainder
// falls back to whichever of the big CPU and GPU currently carries less
// accumulated work (Band's dynamic processor switching), without any
// pipeline-bubble optimisation — the difference the paper credits for its
// extra ~5 %.
func Band(s *soc.SoC, profiles []*profile.Profile) (*pipeline.Schedule, error) {
	npus := s.ProcessorsOfKind(soc.KindNPU)
	bigs := s.ProcessorsOfKind(soc.KindCPUBig)
	gpus := s.ProcessorsOfKind(soc.KindGPU)
	if len(npus) == 0 || len(bigs) == 0 || len(gpus) == 0 {
		return nil, fmt.Errorf("%w: NPU/CPU/GPU", errNoProcessor)
	}
	npu, big, gpu := npus[0], bigs[0], gpus[0]
	k := s.NumProcessors()
	loads := make([]float64, k)
	cuts := make([]pipeline.Cuts, len(profiles))
	for i, p := range profiles {
		n := p.NumLayers()
		prefix := npuPrefix(p, npu)
		fallback := big
		if loads[gpu] < loads[big] {
			fallback = gpu
		}
		c := make(pipeline.Cuts, k+1)
		for st := 1; st <= k; st++ {
			c[st] = boundaryFor(st, npu, fallback, prefix, n)
		}
		cuts[i] = c
		if prefix > 0 {
			loads[npu] += p.SliceTime(npu, 0, prefix-1).Seconds()
		}
		if prefix < n {
			loads[fallback] += p.SliceTime(fallback, prefix, n-1).Seconds()
		}
	}
	return pipeline.FromCuts(s, profiles, cuts)
}

// npuPrefix returns the layer count of the maximal NPU-supported prefix.
func npuPrefix(p *profile.Profile, npu int) int {
	n := p.NumLayers()
	prefix := 0
	for prefix < n && p.Table(npu).Supported(prefix, prefix) {
		prefix++
	}
	return prefix
}

// boundaryFor computes the cut boundary at stage st for a two-piece
// NPU-prefix + fallback-suffix placement. It assumes npu precedes fallback
// in the SoC order (capability-descending order guarantees it).
func boundaryFor(st, npu, fallback, prefix, n int) int {
	switch {
	case st <= npu:
		return 0
	case st <= fallback:
		return prefix
	default:
		return n
	}
}
