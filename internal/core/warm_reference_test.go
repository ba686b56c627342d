package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/soc"
)

// Warm-planner reference differential. The sweep reuses what one planner
// memoized in earlier calls — DP rows and cuts, Algorithm-3 alignments on
// each table state, Algorithm-2 assignments — and a fresh planner per
// window, as TestSweepReference* plan, meets most of those memos empty.
// Here one planner plans a seeded sequence of windows, in plan and in
// frontier mode: repeats, permutations of one multiset, degradation events
// between windows and a return to nominal. Every window's plan and frontier
// must be byte-identical to the kept reference sweep's on fresh planners
// in the same SoC state.

// warmStep is one step of a warm sequence: events applied to the planner's
// SoC, then a window planned on it.
type warmStep struct {
	events []soc.Event
	window []*model.Model
	label  string
}

// warmSequence draws steps over base, a window's multiset: a permutation
// of it, a repeat of the window before, a fresh random window, one
// degradation event (a throttle, a DVFS step, a processor offline or a bus
// squeeze) before the window before, or a return to nominal before a
// permutation. At most one processor is offline at a time, and the last
// step returns to nominal, so a sequence revisits the state it started in.
func warmSequence(rng *rand.Rand, s *soc.SoC, base []*model.Model, steps int) []warmStep {
	permuted := func() []*model.Model {
		w := make([]*model.Model, len(base))
		for i, j := range rng.Perm(len(base)) {
			w[i] = base[j]
		}
		return w
	}
	nominal := []soc.Event{{Kind: soc.EventBandwidthSqueeze, Factor: 1}}
	for _, p := range s.Processors {
		nominal = append(nominal,
			soc.Event{Kind: soc.EventProcessorOnline, Processor: p.ID},
			soc.Event{Kind: soc.EventThermalThrottle, Processor: p.ID, Factor: 1},
			soc.Event{Kind: soc.EventFrequencyScale, Processor: p.ID, Factor: 1})
	}
	out := []warmStep{{window: permuted(), label: "permutation"}}
	offline := ""
	for len(out) < steps {
		prev := out[len(out)-1].window
		var st warmStep
		switch arm := rng.Intn(6); {
		case len(out) == steps-1 || arm == 5:
			st = warmStep{events: nominal, window: permuted(), label: "nominal"}
			offline = ""
		case arm == 0:
			st = warmStep{window: permuted(), label: "permutation"}
		case arm == 1:
			st = warmStep{window: prev, label: "repeat"}
		case arm == 2:
			w, label := randomSweepWindow(rng)
			st = warmStep{window: w, label: "window " + label}
		default:
			p := s.Processors[rng.Intn(len(s.Processors))].ID
			var ev soc.Event
			switch rng.Intn(4) {
			case 0:
				ev = soc.Event{Kind: soc.EventThermalThrottle, Processor: p, Factor: []float64{1, 1.5, 2}[rng.Intn(3)]}
			case 1:
				ev = soc.Event{Kind: soc.EventFrequencyScale, Processor: p, Factor: []float64{0.5, 0.8, 1}[rng.Intn(3)]}
			case 2:
				if offline == "" {
					ev, offline = soc.Event{Kind: soc.EventProcessorOffline, Processor: p}, p
				} else {
					ev, offline = soc.Event{Kind: soc.EventProcessorOnline, Processor: offline}, ""
				}
			default:
				ev = soc.Event{Kind: soc.EventBandwidthSqueeze, Factor: []float64{0.6, 1}[rng.Intn(2)]}
			}
			st = warmStep{events: []soc.Event{ev}, window: prev, label: ev.String()}
		}
		out = append(out, st)
	}
	return out
}

// assertWarmSequenceMatchesReference plans the sequence on one planner over
// s, each window as a plan and as a frontier, and requires every output to
// equal the reference sweep's on fresh planners in the same SoC state.
func assertWarmSequenceMatchesReference(t *testing.T, s *soc.SoC, opts Options, seq []warmStep, label string) {
	t.Helper()
	pl := mustPlanner(t, s, opts)
	ctx := context.Background()
	for i, st := range seq {
		for _, ev := range st.events {
			if _, err := s.Apply(ev); err != nil {
				t.Fatalf("%s step %d: applying %v: %v", label, i, ev, err)
			}
		}
		var gotPlan, gotFrontier string
		if p, _, _, err := pl.PlanModels(ctx, st.window, 1); err != nil {
			gotPlan = "error: " + err.Error()
		} else {
			gotPlan = canonicalPlan(p)
		}
		if f, _, _, err := pl.PlanFrontierModels(ctx, st.window, 1); err != nil {
			gotFrontier = "error: " + err.Error()
		} else {
			gotFrontier = canonicalFrontier(f)
		}
		wantPlan, wantFrontier := sweepOutputs(t, s, opts, st.window, true)
		if gotPlan != wantPlan || gotFrontier != wantFrontier {
			t.Fatalf("%s step %d (%s) on %s at parallelism %d: the warm planner differs from the reference sweep:\n--- reference plan ---\n%s--- warm plan ---\n%s--- reference frontier ---\n%s--- warm frontier ---\n%s",
				label, i, st.label, s.Name, opts.Parallelism, wantPlan, gotPlan, wantFrontier, gotFrontier)
		}
	}
}

// TestSweepReferenceWarmPlanner runs seeded warm sequences over random
// multisets, rotating through the presets and the sweep's parallelisms.
func TestSweepReferenceWarmPlanner(t *testing.T) {
	rng := rand.New(rand.NewSource(20261020))
	presets := soc.AllPresets()
	sequences := 8
	if testing.Short() {
		sequences = 3
	}
	for q := 0; q < sequences; q++ {
		base, label := randomSweepWindow(rng)
		s := presets[q%len(presets)]
		opts := DefaultOptions()
		opts.Parallelism = sweepParallelisms[q%len(sweepParallelisms)]
		assertWarmSequenceMatchesReference(t, s, opts, warmSequence(rng, s, base, 10),
			fmt.Sprintf("sequence %d over %s", q, label))
	}
}
