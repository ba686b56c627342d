package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/soc"
)

// Differential harness: the parallel planning engine is only admissible if
// worker count is invisible in its output. Every test here serialises the
// full plan — ordering, classes, intensities and the final stage
// assignments — into a canonical string and requires the parallel planner
// (2, 4, 8 workers) to be byte-identical to the sequential planner (1
// worker) on the same inputs.

// canonicalPlan renders every observable field of a plan, with float64s in
// hex notation so the comparison is exact to the bit.
func canonicalPlan(p *Plan) string {
	var b strings.Builder
	fmt.Fprintf(&b, "order=%v\n", p.Order)
	fmt.Fprintf(&b, "classes=%v\n", p.Classes)
	b.WriteString("intensities=")
	for _, v := range p.Intensities {
		fmt.Fprintf(&b, "%x ", v)
	}
	b.WriteString("\n")
	for i, row := range p.Schedule.Stages {
		fmt.Fprintf(&b, "req%d=%s stages=%v\n", i, p.Schedule.Profiles[i].Model().Name, row)
	}
	return b.String()
}

// planCanonical plans the models at the given parallelism with a fresh
// planner and returns the canonical serialization.
func planCanonical(t *testing.T, s *soc.SoC, models []*model.Model, parallelism int) string {
	t.Helper()
	opts := DefaultOptions()
	opts.Parallelism = parallelism
	pl, err := NewPlanner(s, opts)
	if err != nil {
		t.Fatalf("NewPlanner(%s): %v", s.Name, err)
	}
	plan, _, _, err := pl.PlanModels(context.Background(), models, 1)
	if err != nil {
		t.Fatalf("PlanModels on %s at parallelism %d: %v", s.Name, parallelism, err)
	}
	return canonicalPlan(plan)
}

var diffParallelisms = []int{2, 4, 8}

// assertParallelMatchesSequential is the differential check shared by every
// scenario below.
func assertParallelMatchesSequential(t *testing.T, s *soc.SoC, models []*model.Model, label string) {
	t.Helper()
	want := planCanonical(t, s, models, 1)
	for _, par := range diffParallelisms {
		if got := planCanonical(t, s, models, par); got != want {
			t.Errorf("%s on %s: plan at parallelism %d differs from sequential:\n--- parallelism 1 ---\n%s--- parallelism %d ---\n%s",
				label, s.Name, par, want, par, got)
		}
	}
}

func mustModels(t *testing.T, names ...string) []*model.Model {
	t.Helper()
	out := make([]*model.Model, len(names))
	for i, n := range names {
		m, err := model.ByName(n)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = m
	}
	return out
}

// TestDifferentialZooSingles plans every zoo model alone on every SoC
// preset at parallelism {2,4,8} vs 1.
func TestDifferentialZooSingles(t *testing.T) {
	for _, s := range soc.AllPresets() {
		for _, name := range model.Names() {
			assertParallelMatchesSequential(t, s, mustModels(t, name), "single "+name)
		}
	}
}

// TestDifferentialPaperPairs covers the co-execution pairs the paper's
// slowdown study mixes: heavy/light, compute-/memory-bound, CNN/transformer.
func TestDifferentialPaperPairs(t *testing.T) {
	pairs := [][]string{
		{model.ResNet50, model.SqueezeNet},
		{model.BERT, model.MobileNetV2},
		{model.YOLOv4, model.GoogLeNet},
		{model.VGG16, model.InceptionV4},
		{model.ViT, model.AlexNet},
	}
	for _, s := range soc.AllPresets() {
		for _, pair := range pairs {
			assertParallelMatchesSequential(t, s, mustModels(t, pair...), "pair "+strings.Join(pair, "+"))
		}
	}
}

// TestDifferentialRandomWindows draws seeded random 3–8 model windows (with
// repetition) from the zoo, rotating through the SoC presets.
func TestDifferentialRandomWindows(t *testing.T) {
	rng := rand.New(rand.NewSource(20250805))
	presets := soc.AllPresets()
	names := model.Names()
	windows := 10
	if testing.Short() {
		windows = 4
	}
	for w := 0; w < windows; w++ {
		size := 3 + rng.Intn(6) // 3..8
		picked := make([]string, size)
		for i := range picked {
			picked[i] = names[rng.Intn(len(names))]
		}
		s := presets[w%len(presets)]
		assertParallelMatchesSequential(t, s, mustModels(t, picked...),
			fmt.Sprintf("window %d (%s)", w, strings.Join(picked, "+")))
	}
}

// TestDifferentialAblationOptions re-runs a mixed window under the ablation
// configurations: the merge policy must hold for every feature subset, not
// only the full planner.
func TestDifferentialAblationOptions(t *testing.T) {
	s := soc.Kirin990()
	models := mustModels(t, model.YOLOv4, model.SqueezeNet, model.BERT, model.ResNet50)
	for _, base := range []struct {
		name string
		opts Options
	}{
		{"default", DefaultOptions()},
		{"noct", NoCTOptions()},
		{"bare", Options{HighQuantile: 0.5, ExecOptions: DefaultOptions().ExecOptions}},
	} {
		base := base
		t.Run(base.name, func(t *testing.T) {
			plan := func(par int) string {
				opts := base.opts
				opts.Parallelism = par
				pl, err := NewPlanner(s, opts)
				if err != nil {
					t.Fatal(err)
				}
				p, _, _, err := pl.PlanModels(context.Background(), models, 1)
				if err != nil {
					t.Fatal(err)
				}
				return canonicalPlan(p)
			}
			want := plan(1)
			for _, par := range diffParallelisms {
				if got := plan(par); got != want {
					t.Errorf("%s options: parallelism %d differs from sequential", base.name, par)
				}
			}
		})
	}
}
