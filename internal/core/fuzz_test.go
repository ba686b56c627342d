package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hetero2pipe/internal/contention"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/soc"
)

// FuzzMitigate checks Algorithm-2 invariants on arbitrary class sequences:
// the result is always a permutation and never increases the conflict
// count.
func FuzzMitigate(f *testing.F) {
	f.Add([]byte("HHLL"), 2)
	f.Add([]byte("HLHLHL"), 3)
	f.Add([]byte("HHHH"), 4)
	f.Add([]byte("L"), 2)
	f.Fuzz(func(t *testing.T, raw []byte, k int) {
		if len(raw) > 24 {
			raw = raw[:24]
		}
		if k < 1 {
			k = 1
		}
		k = k%6 + 1
		cls := make([]contention.Class, len(raw))
		for i, b := range raw {
			if b%2 == 0 {
				cls[i] = contention.High
			} else {
				cls[i] = contention.Low
			}
		}
		order := Mitigate(cls, k)
		if len(order) != len(cls) {
			t.Fatalf("order length %d, want %d", len(order), len(cls))
		}
		seen := make([]bool, len(order))
		for _, v := range order {
			if v < 0 || v >= len(order) || seen[v] {
				t.Fatalf("order %v not a permutation of %d", order, len(cls))
			}
			seen[v] = true
		}
		after := make([]contention.Class, len(order))
		for pos, orig := range order {
			after[pos] = cls[orig]
		}
		if got, before := countConflicts(after, k), countConflicts(cls, k); got > before {
			t.Fatalf("conflicts %d → %d (classes %v, K=%d)", before, got, cls, k)
		}
	})
}

// FuzzParallelPlannerDifferential feeds random model chains — zoo picks,
// batched variants, and fully synthetic layer chains — through the parallel
// planner and cross-checks it against the sequential planner inside the
// fuzz body: the two must produce byte-identical plans (or fail
// identically). The corpus is seeded with the zoo models.
func FuzzParallelPlannerDifferential(f *testing.F) {
	// Zoo seeds: singles and small combos (byte value % #names picks the
	// model; see below).
	for i := 0; i < len(model.Names()); i++ {
		f.Add([]byte{byte(i)}, int64(i))
	}
	f.Add([]byte{0, 5, 9}, int64(42))
	f.Add([]byte{3, 3, 7, 1}, int64(7))
	f.Add([]byte{11, 2, 13}, int64(99)) // exercises batched + synthetic arms
	f.Fuzz(func(t *testing.T, raw []byte, seed int64) {
		if len(raw) == 0 {
			return
		}
		if len(raw) > 4 {
			raw = raw[:4] // bound the window so each body stays fast
		}
		names := model.Names()
		rng := rand.New(rand.NewSource(seed))
		models := make([]*model.Model, len(raw))
		for i, b := range raw {
			switch arm := int(b) % (len(names) + 2); {
			case arm < len(names):
				models[i] = model.MustByName(names[arm])
			case arm == len(names):
				proto := model.MustByName(names[int(b/2)%len(names)])
				models[i] = model.Batched(proto, 2+int(b)%3)
			default:
				models[i] = syntheticChain(rng, fmt.Sprintf("fuzz-%d-%d", seed, i))
			}
		}
		presets := soc.AllPresets()
		s := presets[int(uint64(seed)%uint64(len(presets)))]

		plan := func(par int) (string, error) {
			opts := DefaultOptions()
			opts.Parallelism = par
			pl, err := NewPlanner(s, opts)
			if err != nil {
				t.Fatal(err)
			}
			p, _, err := pl.PlanModels(context.Background(), models, 1)
			if err != nil {
				return "", err
			}
			return canonicalPlan(p), nil
		}
		seq, seqErr := plan(1)
		par, parErr := plan(4)
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("sequential err=%v, parallel err=%v", seqErr, parErr)
		}
		if seqErr != nil {
			return // both planners reject the input the same way
		}
		if seq != par {
			t.Fatalf("parallel plan differs from sequential:\n--- seq ---\n%s--- par ---\n%s", seq, par)
		}
	})
}

// syntheticChain builds a random but valid layer chain: consecutive layers'
// tensor sizes match and every field passes model.Validate.
func syntheticChain(rng *rand.Rand, name string) *model.Model {
	kinds := []model.OpKind{
		model.OpConv, model.OpDepthwiseConv, model.OpFC, model.OpMatMul,
		model.OpPool, model.OpActivation, model.OpAttention, model.OpLayerNorm,
	}
	n := 3 + rng.Intn(14)
	in := int64(1024 * (1 + rng.Intn(128)))
	m := &model.Model{Name: name, InputBytes: in}
	cur := in
	for i := 0; i < n; i++ {
		out := int64(1024 * (1 + rng.Intn(128)))
		weights := int64(1024 * rng.Intn(4096))
		m.Layers = append(m.Layers, model.Layer{
			Name:            fmt.Sprintf("l%d", i),
			Kind:            kinds[rng.Intn(len(kinds))],
			FLOPs:           float64(1+rng.Intn(2000)) * 1e6,
			InputBytes:      cur,
			OutputBytes:     out,
			WeightBytes:     weights,
			WorkingSetBytes: weights + cur + out,
		})
		cur = out
	}
	return m
}

func countConflicts(cls []contention.Class, k int) int {
	prev := -1
	n := 0
	for p, c := range cls {
		if c != contention.High {
			continue
		}
		if prev >= 0 && p-prev < k {
			n++
		}
		prev = p
	}
	return n
}
