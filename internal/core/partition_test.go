package core

import (
	"math"
	"testing"
	"time"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

func profileFor(t *testing.T, s *soc.SoC, name string) *profile.Profile {
	t.Helper()
	p, err := profile.New(s, model.MustByName(name))
	if err != nil {
		t.Fatalf("profile %s: %v", name, err)
	}
	return p
}

func TestPartitionValidAndFeasible(t *testing.T) {
	s := soc.Kirin990()
	for _, name := range model.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			p := profileFor(t, s, name)
			cuts, best, err := PartitionContext(t.Context(), p)
			if err != nil {
				t.Fatalf("Partition: %v", err)
			}
			if !pipeline.ValidCuts(cuts, p.NumLayers(), p.NumProcessors()) {
				t.Fatalf("invalid cuts %v", cuts)
			}
			if best <= 0 || math.IsInf(best, 1) {
				t.Fatalf("bottleneck %g", best)
			}
			// The reported bottleneck matches the cuts.
			var maxStage float64
			for k := 0; k < p.NumProcessors(); k++ {
				v := sliceSeconds(p, k, cuts[k], cuts[k+1]-1)
				if math.IsInf(v, 1) {
					t.Fatalf("stage %d infeasible under returned cuts", k)
				}
				if v > maxStage {
					maxStage = v
				}
			}
			if math.Abs(maxStage-best) > 1e-9 {
				t.Errorf("reported bottleneck %g != realised %g", best, maxStage)
			}
		})
	}
}

// TestPartitionMatchesReference cross-checks the bracketed-search DP against
// the O(n²K) direct recurrence on every zoo model and all three SoCs.
func TestPartitionMatchesReference(t *testing.T) {
	for _, s := range soc.Presets() {
		for _, name := range model.Names() {
			p := profileFor(t, s, name)
			_, fast, err := PartitionContext(t.Context(), p)
			if err != nil {
				t.Fatalf("%s/%s: %v", s.Name, name, err)
			}
			ref, err := partitionReference(p)
			if err != nil {
				t.Fatalf("%s/%s reference: %v", s.Name, name, err)
			}
			if math.Abs(fast-ref) > 1e-9*math.Max(fast, 1) {
				t.Errorf("%s/%s: pruned DP %g != reference %g", s.Name, name, fast, ref)
			}
		}
	}
}

// partitionReference is the direct O(n²K) realisation of the recurrence,
// the cross-check of the pruned version.
func partitionReference(p *profile.Profile) (float64, error) {
	n := p.NumLayers()
	k := p.NumProcessors()
	if n == 0 || k == 0 {
		return 0, ErrInfeasiblePartition
	}
	prev := make([]float64, n+1)
	dp := make([]float64, n+1)
	prev[0] = 0
	for j := 0; j < n; j++ {
		prev[j+1] = sliceSeconds(p, 0, 0, j)
	}
	for stage := 1; stage < k; stage++ {
		dp[0] = prev[0]
		for j := 0; j < n; j++ {
			best := math.Inf(1)
			for i := 0; i <= j+1; i++ {
				v := math.Max(prev[i], sliceSeconds(p, stage, i, j))
				if v < best {
					best = v
				}
			}
			dp[j+1] = best
		}
		dp, prev = prev, dp
	}
	if math.IsInf(prev[n], 1) {
		return 0, ErrInfeasiblePartition
	}
	return prev[n], nil
}

// TestPartitionBeatsSingleProcessor: the min-max bottleneck can never exceed
// the best single-processor execution, and for large models it must be
// strictly better (load actually spread).
func TestPartitionBeatsSingleProcessor(t *testing.T) {
	s := soc.Kirin990()
	for _, name := range []string{model.VGG16, model.YOLOv4, model.BERT} {
		p := profileFor(t, s, name)
		_, best, err := PartitionContext(t.Context(), p)
		if err != nil {
			t.Fatal(err)
		}
		n := p.NumLayers()
		single := math.Inf(1)
		for k := 0; k < p.NumProcessors(); k++ {
			if v := sliceSeconds(p, k, 0, n-1); v < single {
				single = v
			}
		}
		if best > single+1e-12 {
			t.Errorf("%s: partitioned bottleneck %g worse than single-processor %g", name, best, single)
		}
		if best > 0.9*single {
			t.Errorf("%s: partitioning barely helps (%g vs %g); expected real spreading", name, best, single)
		}
	}
}

// TestPartitionNPUFallback: models with NPU-unsupported operators must still
// partition, with the NPU stage skipping every unsupported layer.
func TestPartitionNPUFallback(t *testing.T) {
	s := soc.Kirin990()
	for _, name := range []string{model.BERT, model.YOLOv4, model.ViT} {
		p := profileFor(t, s, name)
		cuts, _, err := PartitionContext(t.Context(), p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		// Stage 0 is the NPU on the Kirin preset; its slice must be
		// supported (possibly empty).
		if cuts[1] > cuts[0] && !p.Table(0).Supported(cuts[0], cuts[1]-1) {
			t.Errorf("%s: NPU slice [%d,%d) unsupported", name, cuts[0], cuts[1])
		}
	}
	// BERT's first layer (embedding) is unsupported, so the NPU slice is
	// necessarily empty.
	p := profileFor(t, s, model.BERT)
	cuts, _, err := PartitionContext(t.Context(), p)
	if err != nil {
		t.Fatal(err)
	}
	if cuts[1] != 0 {
		t.Errorf("BERT NPU slice = [0,%d), want empty (embedding unsupported)", cuts[1])
	}
}

// TestPartitionFullySupportedUsesNPU: conv classifiers should put real work
// on the Kirin NPU (it is far faster — capability ordering).
func TestPartitionFullySupportedUsesNPU(t *testing.T) {
	s := soc.Kirin990()
	for _, name := range []string{model.ResNet50, model.VGG16, model.InceptionV4} {
		p := profileFor(t, s, name)
		cuts, _, err := PartitionContext(t.Context(), p)
		if err != nil {
			t.Fatal(err)
		}
		if cuts[1] == 0 {
			t.Errorf("%s: NPU stage empty; expected the fast processor to take load", name)
		}
	}
}

func TestPartitionSchedulable(t *testing.T) {
	s := soc.Snapdragon870()
	var profiles []*profile.Profile
	var cuts []pipeline.Cuts
	for _, name := range []string{model.ResNet50, model.BERT, model.SqueezeNet} {
		p := profileFor(t, s, name)
		c, _, err := PartitionContext(t.Context(), p)
		if err != nil {
			t.Fatal(err)
		}
		profiles = append(profiles, p)
		cuts = append(cuts, c)
	}
	sched, err := pipeline.FromCuts(s, profiles, cuts)
	if err != nil {
		t.Fatalf("FromCuts: %v", err)
	}
	if _, err := pipeline.ExecuteContext(t.Context(), sched, pipeline.DefaultOptions()); err != nil {
		t.Fatalf("Execute: %v", err)
	}
}

// TestPartitionBottleneckOptimalSmall brute-forces tiny synthetic models to
// confirm global optimality of the DP.
func TestPartitionBottleneckOptimalSmall(t *testing.T) {
	s := soc.Kirin990()
	m := model.MustByName(model.AlexNet)
	// Truncate to the first 8 layers for brute force over all boundary
	// placements.
	small := &model.Model{Name: "Alex8", Layers: m.Layers[:8], InputBytes: m.InputBytes}
	p, err := profile.New(s, small)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := PartitionContext(t.Context(), p)
	if err != nil {
		t.Fatal(err)
	}
	want := bruteForceBottleneck(p)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("DP bottleneck %g != brute force %g", got, want)
	}
}

// bruteForceBottleneck enumerates every boundary vector.
func bruteForceBottleneck(p *profile.Profile) float64 {
	n := p.NumLayers()
	k := p.NumProcessors()
	best := math.Inf(1)
	bounds := make([]int, k+1)
	bounds[k] = n
	var rec func(stage int)
	rec = func(stage int) {
		if stage == k {
			if bounds[k-1] > n {
				return
			}
			var worst float64
			for s := 0; s < k; s++ {
				v := sliceSeconds(p, s, bounds[s], bounds[s+1]-1)
				if v > worst {
					worst = v
				}
			}
			if worst < best {
				best = worst
			}
			return
		}
		for b := bounds[stage-1]; b <= n; b++ {
			bounds[stage] = b
			rec(stage + 1)
		}
	}
	rec(1)
	return best
}

func TestSliceSecondsConventions(t *testing.T) {
	s := soc.Kirin990()
	p := profileFor(t, s, model.AlexNet)
	if got := sliceSeconds(p, 1, 5, 4); got != 0 {
		t.Errorf("empty slice = %g, want 0", got)
	}
	if got := sliceSeconds(p, 1, 0, 0); got <= 0 {
		t.Errorf("single layer = %g, want > 0", got)
	}
	d := p.SliceTime(1, 0, 3)
	if got, want := sliceSeconds(p, 1, 0, 3), d.Seconds(); math.Abs(got-want) > 1e-12 {
		t.Errorf("sliceSeconds = %g, want %g", got, want)
	}
	_ = time.Second // keep time import for future additions
}

// TestParametricMatchesDP: the binary-search partitioner lands on (or very
// near — the copy-in term is not monotone in the slice start, which breaks
// strict greedy optimality) the DP optimum across the zoo and all presets.
func TestParametricMatchesDP(t *testing.T) {
	for _, s := range soc.Presets() {
		for _, name := range model.Names() {
			p := profileFor(t, s, name)
			_, dp, err := PartitionContext(t.Context(), p)
			if err != nil {
				t.Fatalf("%s/%s: DP: %v", s.Name, name, err)
			}
			cuts, par, err := PartitionParametric(p)
			if err != nil {
				t.Fatalf("%s/%s: parametric: %v", s.Name, name, err)
			}
			if !pipeline.ValidCuts(cuts, p.NumLayers(), p.NumProcessors()) {
				t.Fatalf("%s/%s: invalid parametric cuts %v", s.Name, name, cuts)
			}
			if par < dp-1e-9 {
				t.Errorf("%s/%s: parametric %g beats the DP optimum %g (impossible)",
					s.Name, name, par, dp)
			}
			if par > dp*1.05+1e-9 {
				t.Errorf("%s/%s: parametric %g more than 5%% above DP %g",
					s.Name, name, par, dp)
			}
		}
	}
}
