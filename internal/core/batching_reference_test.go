package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/workload"
)

// referenceCoalesceLight is CoalesceLight as it stood before batch curves
// and structural classes, kept verbatim: one layer pass per request for its
// batch-1 time, light requests bucketed by model name, and one alignment
// scan per bucket. TestCoalesceLightReference and FuzzCoalesceLight pin the
// live grouping to it on every window whose same-named models are
// structurally equal.
func referenceCoalesceLight(s *soc.SoC, requests []*model.Model, maxBatch int) []BatchGroup {
	if maxBatch < 1 {
		maxBatch = 1
	}
	if len(requests) == 0 {
		return nil
	}
	ref := referenceProcessor(s)
	times := make([]time.Duration, len(requests))
	var target time.Duration
	for i, m := range requests {
		times[i] = soc.BatchLatency(ref, m, 1)
		if times[i] != soc.InfDuration && times[i] > target {
			target = times[i]
		}
	}
	// Lightweight: under a quarter of the heaviest request.
	lightBound := target / 4

	// Collect light request indices per model name.
	type bucket struct {
		idxs []int
	}
	buckets := make(map[string]*bucket)
	var groups []BatchGroup
	for i, m := range requests {
		if times[i] == soc.InfDuration || times[i] > lightBound {
			groups = append(groups, BatchGroup{Model: m, Requests: []int{i}})
			continue
		}
		bk, ok := buckets[m.Name]
		if !ok {
			bk = &bucket{}
			buckets[m.Name] = bk
		}
		bk.idxs = append(bk.idxs, i)
	}
	for _, bk := range buckets {
		proto := requests[bk.idxs[0]]
		batch := soc.AlignmentBatch(ref, proto, target, maxBatch)
		if batch > len(bk.idxs) {
			batch = len(bk.idxs)
		}
		for start := 0; start < len(bk.idxs); start += batch {
			end := start + batch
			if end > len(bk.idxs) {
				end = len(bk.idxs)
			}
			members := bk.idxs[start:end]
			groups = append(groups, BatchGroup{
				Model:    model.Batched(proto, len(members)),
				Requests: append([]int(nil), members...),
			})
		}
	}
	// Stable order: by the first original index in each group.
	sort.SliceStable(groups, func(a, b int) bool {
		return groups[a].Requests[0] < groups[b].Requests[0]
	})
	return groups
}

// namesAreStructural reports whether every pair of same-named requests is
// structurally identical — the windows on which structural classes and
// the reference's name buckets must agree.
func namesAreStructural(requests []*model.Model) bool {
	first := make(map[string]*model.Model)
	for _, m := range requests {
		if f, ok := first[m.Name]; ok && !sameModel(f, m) {
			return false
		}
		first[m.Name] = m
	}
	return true
}

// checkCoalesce checks the live grouping's own invariants on any window:
// every request lands in exactly one group, groups open in request order,
// a group's members are structurally identical, and its model is the
// first member batched to the group's size. When same-named requests are
// structurally equal it also compares the groups with the reference:
// Requests equal, Model names equal and the models sameModel.
func checkCoalesce(tb testing.TB, label string, s *soc.SoC, requests []*model.Model, maxBatch int) {
	tb.Helper()
	got := CoalesceLight(s, requests, maxBatch)
	seen := make([]bool, len(requests))
	for gi, g := range got {
		if len(g.Requests) == 0 {
			tb.Fatalf("%s: group %d is empty", label, gi)
		}
		if gi > 0 && got[gi-1].Requests[0] >= g.Requests[0] {
			tb.Fatalf("%s: group %d opens at request %d, after group %d's %d", label, gi, g.Requests[0], gi-1, got[gi-1].Requests[0])
		}
		if mb := max(maxBatch, 1); len(g.Requests) > mb {
			tb.Fatalf("%s: group %d holds %d requests, maxBatch %d", label, gi, len(g.Requests), mb)
		}
		first := requests[g.Requests[0]]
		for _, idx := range g.Requests {
			if seen[idx] {
				tb.Fatalf("%s: request %d in two groups", label, idx)
			}
			seen[idx] = true
			if !sameModel(requests[idx], first) {
				tb.Fatalf("%s: group %d mixes %s with a different %s", label, gi, first.Name, requests[idx].Name)
			}
		}
		if !sameModel(g.Model, model.Batched(first, len(g.Requests))) {
			tb.Fatalf("%s: group %d model %s is not %s batched %d×", label, gi, g.Model.Name, first.Name, len(g.Requests))
		}
	}
	for idx, ok := range seen {
		if !ok {
			tb.Fatalf("%s: request %d in no group", label, idx)
		}
	}
	if !namesAreStructural(requests) {
		return
	}
	want := referenceCoalesceLight(s, requests, maxBatch)
	if len(got) != len(want) {
		tb.Fatalf("%s: %d groups, reference %d:\n live %s\n ref  %s", label, len(got), len(want), describeGroups(got), describeGroups(want))
	}
	for i := range want {
		if !slices.Equal(got[i].Requests, want[i].Requests) || got[i].Model.Name != want[i].Model.Name ||
			!sameModel(got[i].Model, want[i].Model) {
			tb.Fatalf("%s: group %d differs from the reference:\n live %s\n ref  %s", label, i, describeGroups(got), describeGroups(want))
		}
	}
}

func describeGroups(groups []BatchGroup) string {
	out := ""
	for _, g := range groups {
		out += fmt.Sprintf("[%s %v] ", g.Model.Name, g.Requests)
	}
	return out
}

// coalescePools are the model pools a random window draws from: the whole
// zoo with the application extras, the lightweight tier alone, the heavy
// tier alone, and the lightweight tier beside one heavy anchor (the
// video-analytics shape, where most batches form).
var coalescePools = [][]string{
	append(model.Names(), model.ExtraNames()...),
	model.LightweightNames(),
	model.HeavyNames(),
	append([]string{model.BERT}, model.LightweightNames()...),
}

// randomCoalesceWindow draws a 1–16-request window from a palette of one to
// four names of the pool, so requests repeat. Members of the full zoo are
// sometimes pre-batched 2–4×, and about a third of all members are
// pointer-distinct clones; same-named members stay structurally equal.
func randomCoalesceWindow(rng *rand.Rand, pool []string) []*model.Model {
	palette := make([]string, 1+rng.Intn(min(4, len(pool))))
	for i := range palette {
		palette[i] = pool[rng.Intn(len(pool))]
	}
	window := make([]*model.Model, 1+rng.Intn(16))
	for i := range window {
		m := model.MustByName(palette[rng.Intn(len(palette))])
		if len(pool) > 4 && rng.Intn(5) == 0 {
			m = model.Batched(m, 2+rng.Intn(3))
		}
		if rng.Intn(3) == 0 {
			m = m.Clone()
		}
		window[i] = m
	}
	return window
}

// coalesceStates returns the preset nominal, with its reference processor
// (the big CPU where there is one) offline, and with it throttled.
func coalesceStates(tb testing.TB, preset func() *soc.SoC) map[string]*soc.SoC {
	tb.Helper()
	out := map[string]*soc.SoC{"nominal": preset()}
	for _, ev := range []soc.Event{
		{Kind: soc.EventProcessorOffline},
		{Kind: soc.EventThermalThrottle, Factor: 2.5},
	} {
		s := preset()
		ev.Processor = referenceProcessor(s).ID
		if _, err := s.Apply(ev); err != nil {
			tb.Fatal(err)
		}
		out[ev.Kind.String()] = s
	}
	return out
}

var coalesceMaxBatches = []int{0, 1, 2, 32}

// TestCoalesceLightReference compares the live grouping with the reference
// on every preset, nominal and with the reference processor offline or
// throttled, at maxBatch 0, 1, 2 and 32: the two application windows the
// workloads run, and seeded random windows from each pool.
func TestCoalesceLightReference(t *testing.T) {
	video, err := workload.Instantiate(workload.VideoAnalytics(8))
	if err != nil {
		t.Fatal(err)
	}
	scene, err := workload.Instantiate(append(workload.SceneUnderstanding(), workload.VideoAnalytics(3)...))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20261017))
	windows := [][]*model.Model{video, scene}
	for w := 0; w < 48; w++ {
		windows = append(windows, randomCoalesceWindow(rng, coalescePools[w%len(coalescePools)]))
	}
	for pi := range soc.AllPresets() {
		preset := func() *soc.SoC { return soc.AllPresets()[pi] }
		for state, s := range coalesceStates(t, preset) {
			for _, maxBatch := range coalesceMaxBatches {
				for w, window := range windows {
					checkCoalesce(t, fmt.Sprintf("%s/%s/maxBatch %d/window %d", s.Name, state, maxBatch, w), s, window, maxBatch)
				}
			}
		}
	}
}

// TestCoalesceLightSplitsSameNameDifferentStructure: a custom model that
// reuses a zoo name but differs in structure must not be batched with its
// namesake. Bucketing by name built one SqueezeNet×2 group from the first
// clone and planned the second request as something it is not.
func TestCoalesceLightSplitsSameNameDifferentStructure(t *testing.T) {
	clone := model.MustByName(model.SqueezeNet).Clone()
	doubled := model.MustByName(model.SqueezeNet).Clone()
	for i := range doubled.Layers {
		doubled.Layers[i].FLOPs *= 2
	}
	requests := []*model.Model{model.MustByName(model.VGG16), clone, doubled}
	groups := CoalesceLight(soc.Kirin990(), requests, 32)
	if len(groups) != 3 {
		t.Fatalf("groups %s, want three solo groups", describeGroups(groups))
	}
	for i, g := range groups {
		if !slices.Equal(g.Requests, []int{i}) || !sameModel(g.Model, requests[i]) {
			t.Fatalf("group %d = %s, want request %d as itself", i, describeGroups(groups[i:i+1]), i)
		}
	}
	checkCoalesce(t, "same name, different structure", soc.Kirin990(), requests, 32)
}

// FuzzCoalesceLight: any fuzzed window — zoo models, application extras,
// pre-batched variants, pointer-distinct clones and same-named models with
// scaled FLOPs — on any preset, nominal or with the reference processor
// offline or throttled, at maxBatch 0, 1, 2 or 32, must keep the live
// grouping's invariants, and must match the reference whenever same-named
// requests are structurally equal.
func FuzzCoalesceLight(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3}, uint8(0))
	f.Add([]byte{14, 20, 20, 26, 20, 26, 14}, uint8(0x1d))
	f.Add([]byte{2, 2, 2, 2, 2, 2, 2, 2, 2}, uint8(0x2c))
	f.Add([]byte{30, 50, 70, 90}, uint8(0x07))
	f.Add([]byte{13, 33, 53, 13}, uint8(0x3e))
	f.Fuzz(func(t *testing.T, raw []byte, bits uint8) {
		if len(raw) == 0 {
			return
		}
		if len(raw) > 24 {
			raw = raw[:24]
		}
		pool := coalescePools[0]
		window := make([]*model.Model, len(raw))
		for i, b := range raw {
			m := model.MustByName(pool[int(b)%len(pool)])
			switch (b / byte(len(pool))) % 5 {
			case 1:
				m = m.Clone()
			case 2:
				m = model.Batched(m, 2+int(b)%3)
			case 3:
				m = m.Clone()
				for j := range m.Layers {
					m.Layers[j].FLOPs *= 2
				}
			}
			window[i] = m
		}
		presets := soc.AllPresets()
		pi := int(bits) % len(presets)
		states := coalesceStates(t, func() *soc.SoC { return soc.AllPresets()[pi] })
		s := states["nominal"]
		switch (bits >> 3) % 3 {
		case 1:
			s = states[soc.EventProcessorOffline.String()]
		case 2:
			s = states[soc.EventThermalThrottle.String()]
		}
		maxBatch := coalesceMaxBatches[int(bits>>5)%len(coalesceMaxBatches)]
		checkCoalesce(t, fmt.Sprintf("%s/bits %#x", s.Name, bits), s, window, maxBatch)
	})
}
