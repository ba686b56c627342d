package core

import (
	"math"
	"testing"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

func partitionedWindow(t *testing.T, s *soc.SoC, names ...string) ([]*profile.Profile, []pipeline.Cuts) {
	t.Helper()
	var profiles []*profile.Profile
	var cuts []pipeline.Cuts
	for _, name := range names {
		p := profileFor(t, s, name)
		c, _, err := PartitionContext(t.Context(), p)
		if err != nil {
			t.Fatalf("Partition %s: %v", name, err)
		}
		profiles = append(profiles, p)
		cuts = append(cuts, c)
	}
	return profiles, cuts
}

func scheduleBubbles(t *testing.T, s *soc.SoC, profiles []*profile.Profile, cuts []pipeline.Cuts) float64 {
	t.Helper()
	sched, err := pipeline.FromCuts(s, profiles, cuts)
	if err != nil {
		t.Fatalf("FromCuts: %v", err)
	}
	return sched.Bubbles().Seconds()
}

func TestCriticalIndex(t *testing.T) {
	s := soc.Kirin990()
	profiles, cuts := partitionedWindow(t, s, model.SqueezeNet, model.YOLOv4, model.MobileNetV2)
	if got := CriticalIndex(profiles, cuts); got != 1 {
		t.Errorf("CriticalIndex = %d, want 1 (YOLOv4 dominates)", got)
	}
}

// TestWorkStealingReducesBubbles: the paper's core claim for Algorithm 3 —
// aligning stage times to the critical path reduces the Eq. (3) bubbles.
func TestWorkStealingReducesBubbles(t *testing.T) {
	s := soc.Kirin990()
	cases := [][]string{
		{model.BERT, model.SqueezeNet, model.ResNet50, model.MobileNetV2},
		{model.YOLOv4, model.GoogLeNet, model.ViT, model.AlexNet},
		{model.VGG16, model.SqueezeNet, model.InceptionV4, model.MobileNetV2},
	}
	for _, names := range cases {
		profiles, cuts := partitionedWindow(t, s, names...)
		before := scheduleBubbles(t, s, profiles, cuts)
		stolen := make([]pipeline.Cuts, len(cuts))
		for i := range cuts {
			stolen[i] = make(pipeline.Cuts, len(cuts[i]))
			copy(stolen[i], cuts[i])
		}
		WorkSteal(profiles, stolen, s.NumProcessors())
		after := scheduleBubbles(t, s, profiles, stolen)
		if after > before*1.02 {
			t.Errorf("%v: bubbles %.4fs → %.4fs (work stealing worsened)", names, before, after)
		}
	}
}

func TestWorkStealingKeepsValidity(t *testing.T) {
	s := soc.Snapdragon778G()
	profiles, cuts := partitionedWindow(t, s,
		model.BERT, model.SqueezeNet, model.YOLOv4, model.MobileNetV2, model.ViT)
	WorkSteal(profiles, cuts, s.NumProcessors())
	for i, c := range cuts {
		if !pipeline.ValidCuts(c, profiles[i].NumLayers(), s.NumProcessors()) {
			t.Fatalf("request %d: invalid cuts %v after stealing", i, c)
		}
	}
	if _, err := pipeline.FromCuts(s, profiles, cuts); err != nil {
		t.Fatalf("stolen schedule invalid: %v", err)
	}
}

func TestAlignWindowMovesTowardTarget(t *testing.T) {
	s := soc.Kirin990()
	profiles, cuts := partitionedWindow(t, s, model.BERT, model.SqueezeNet)
	critical := 0 // BERT
	target := stageSeconds(profiles[critical], cuts[critical])
	beforeDev := totalDeviation(profiles[1], cuts[1], target)
	AlignWindow(profiles, cuts, critical)
	afterDev := totalDeviation(profiles[1], cuts[1], target)
	if afterDev > beforeDev+1e-12 {
		t.Errorf("deviation %.6f → %.6f (alignment diverged)", beforeDev, afterDev)
	}
}

func TestAlignWindowBadCritical(t *testing.T) {
	s := soc.Kirin990()
	profiles, cuts := partitionedWindow(t, s, model.AlexNet)
	orig := make(pipeline.Cuts, len(cuts[0]))
	copy(orig, cuts[0])
	AlignWindow(profiles, cuts, -1)
	AlignWindow(profiles, cuts, 5)
	for i := range orig {
		if cuts[0][i] != orig[i] {
			t.Fatal("out-of-range critical index mutated cuts")
		}
	}
}

func TestStageSecondsFinite(t *testing.T) {
	s := soc.Kirin990()
	profiles, cuts := partitionedWindow(t, s, model.YOLOv4)
	for k, v := range stageSeconds(profiles[0], cuts[0]) {
		if math.IsInf(v, 1) || v < 0 {
			t.Errorf("stage %d seconds = %g", k, v)
		}
	}
	if tot := totalSeconds(profiles[0], cuts[0]); tot <= 0 || math.IsInf(tot, 1) {
		t.Errorf("total seconds = %g", tot)
	}
}

// stageSeconds returns the per-stage solo durations of cuts on p.
func stageSeconds(p *profile.Profile, cuts pipeline.Cuts) []float64 {
	return stageSecondsInto(nil, p, cuts)
}

func totalDeviation(p *profile.Profile, cuts pipeline.Cuts, target []float64) float64 {
	var sum float64
	for k, v := range stageSeconds(p, cuts) {
		sum += math.Abs(v - target[k])
	}
	return sum
}
