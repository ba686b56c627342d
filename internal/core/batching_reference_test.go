package core

import (
	"context"
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

// referenceCoalesceLight is the coalescing path as it stood before batch
// curves, structural classes and the batching state kept on cost-cache
// entries, kept verbatim: one layer pass per request for its batch-1 time,
// light requests bucketed by model name, one alignment scan per bucket, and
// fresh batched models in every window. TestCoalesceLightReference,
// TestCoalesceLightReferenceAcrossEvents and FuzzCoalesceLight pin the
// planner's grouping to it on every window whose same-named models are
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

// checkCoalesce coalesces a window through the planner and checks the
// grouping's own invariants on any window: every request lands in exactly
// one group, groups open in request order, a group's members are
// structurally identical, its model is the first member batched to the
// group's size, and a one-request group plans the request's own model.
// When same-named requests are structurally equal it also compares the
// groups with the reference on the planner's live SoC: Requests equal,
// Model names equal and the models sameModel. It returns the groups.
func checkCoalesce(tb testing.TB, label string, pl *Planner, requests []*model.Model, maxBatch int) []BatchGroup {
	tb.Helper()
	got := pl.coalesceLight(requests, maxBatch)
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
		if len(g.Requests) == 1 && g.Model != first {
			tb.Fatalf("%s: group %d plans a copy of request %d, not the request's own model", label, gi, g.Requests[0])
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
		return got
	}
	want := referenceCoalesceLight(pl.SoC(), requests, maxBatch)
	if len(got) != len(want) {
		tb.Fatalf("%s: %d groups, reference %d:\n live %s\n ref  %s", label, len(got), len(want), describeGroups(got), describeGroups(want))
	}
	for i := range want {
		if !slices.Equal(got[i].Requests, want[i].Requests) || got[i].Model.Name != want[i].Model.Name ||
			!sameModel(got[i].Model, want[i].Model) {
			tb.Fatalf("%s: group %d differs from the reference:\n live %s\n ref  %s", label, i, describeGroups(got), describeGroups(want))
		}
	}
	return got
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

// coalesceEvents returns the state changes the coalescing checks apply to
// a preset: its reference processor (the big CPU where there is one) going
// offline, and the same processor throttled.
func coalesceEvents(s *soc.SoC) []soc.Event {
	ref := referenceProcessor(s).ID
	return []soc.Event{
		{Kind: soc.EventProcessorOffline, Processor: ref},
		{Kind: soc.EventThermalThrottle, Processor: ref, Factor: 2.5},
	}
}

// applyEvent applies ev to the planner's SoC; the planner's memos key on
// the state, so nothing else is called.
func applyEvent(tb testing.TB, pl *Planner, ev soc.Event) {
	tb.Helper()
	if _, err := pl.SoC().Apply(ev); err != nil {
		tb.Fatal(err)
	}
}

// coalescePlanner returns a planner on a fresh copy of the preset, with
// events applied to it in order.
func coalescePlanner(tb testing.TB, preset func() *soc.SoC, events ...soc.Event) *Planner {
	tb.Helper()
	pl, err := NewPlanner(preset(), DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	for _, ev := range events {
		applyEvent(tb, pl, ev)
	}
	return pl
}

var coalesceMaxBatches = []int{0, 1, 2, 32}

// TestCoalesceLightReference compares the planner's grouping with the
// reference on every preset, nominal and with the reference processor
// offline or throttled, at maxBatch 0, 1, 2 and 32: the two application
// windows the workloads run, and seeded random windows from each pool. One
// planner serves every window of a state, so most windows read curves and
// variants an earlier window left on the cost-cache entries.
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
		states := map[string]*Planner{"nominal": coalescePlanner(t, preset)}
		for _, ev := range coalesceEvents(preset()) {
			states[ev.Kind.String()] = coalescePlanner(t, preset, ev)
		}
		for state, pl := range states {
			for _, maxBatch := range coalesceMaxBatches {
				for w, window := range windows {
					checkCoalesce(t, fmt.Sprintf("%s/%s/maxBatch %d/window %d", pl.SoC().Name, state, maxBatch, w), pl, window, maxBatch)
				}
			}
		}
	}
}

// TestCoalesceLightReferenceAcrossEvents serves one recurring window whose
// light classes batch from one planner, through PlanModels, while the big
// CPU — the reference processor — is throttled and restored, taken offline
// and back online, and the bus is squeezed, each event applied through
// SoC().Apply. Every window must group like the reference on the live SoC,
// so a batch curve served in a state its processor was not measured in
// fails here: with the big CPU offline every curve is infinite and every
// request plans alone, where a stale nominal curve would still batch. Windows with no event between them must hand the
// planner pointer-identical group models, and InvalidateCache must leave
// the groups unchanged.
func TestCoalesceLightReferenceAcrossEvents(t *testing.T) {
	ctx := context.Background()
	pl := coalescePlanner(t, soc.Kirin990)
	big := referenceProcessor(pl.SoC()).ID
	window := modelsOf(model.VGG16,
		model.SqueezeNet, model.MobileNetV2, model.SqueezeNet, model.SqueezeNet, model.MobileNetV2,
		model.SqueezeNet, model.SqueezeNet, model.MobileNetV2, model.SqueezeNet, model.GoogLeNet)
	const maxBatch = 32
	steps := []struct {
		label string
		event *soc.Event
		// invalidate calls InvalidateCache before the window.
		invalidate bool
		// batches: the window must form a batch of at least two requests;
		// alone: every request must plan alone.
		batches, alone bool
	}{
		{label: "nominal", batches: true},
		{label: "nominal, recurring", batches: true},
		{label: "big CPU throttled", event: &soc.Event{Kind: soc.EventThermalThrottle, Processor: big, Factor: 2.5}},
		{label: "throttled, recurring"},
		{label: "throttle lifted", event: &soc.Event{Kind: soc.EventThermalThrottle, Processor: big, Factor: 1}, batches: true},
		{label: "big CPU offline", event: &soc.Event{Kind: soc.EventProcessorOffline, Processor: big}, alone: true},
		{label: "offline, recurring", alone: true},
		{label: "big CPU online", event: &soc.Event{Kind: soc.EventProcessorOnline, Processor: big}, batches: true},
		{label: "bus squeezed", event: &soc.Event{Kind: soc.EventBandwidthSqueeze, Factor: 0.6}, batches: true},
		{label: "squeezed, recurring", batches: true},
		{label: "cache invalidated", invalidate: true, batches: true},
		{label: "invalidated, recurring", batches: true},
	}
	var prev []BatchGroup
	for _, st := range steps {
		if st.event != nil {
			applyEvent(t, pl, *st.event)
		}
		if st.invalidate {
			pl.InvalidateCache()
		}
		plan, planned, _, err := pl.PlanModels(ctx, window, maxBatch)
		if err != nil {
			t.Fatalf("%s: %v", st.label, err)
		}
		got := checkCoalesce(t, st.label, pl, window, maxBatch)
		if len(planned) != len(got) {
			t.Fatalf("%s: PlanModels planned %d groups, coalescing gives %d", st.label, len(planned), len(got))
		}
		for pos, orig := range plan.Order {
			if planned[pos].Model != got[orig].Model || !slices.Equal(planned[pos].Requests, got[orig].Requests) {
				t.Fatalf("%s: planned group %d is not coalesced group %d", st.label, pos, orig)
			}
		}
		largest := 0
		for _, g := range got {
			largest = max(largest, len(g.Requests))
		}
		if st.batches && largest < 2 {
			t.Fatalf("%s: no light class batched: %s", st.label, describeGroups(got))
		}
		if st.alone && largest != 1 {
			t.Fatalf("%s: requests batched with every curve infinite: %s", st.label, describeGroups(got))
		}
		if prev != nil && st.event == nil {
			if len(prev) != len(got) {
				t.Fatalf("%s: %d groups, the window before %d", st.label, len(got), len(prev))
			}
			for i := range got {
				if !slices.Equal(got[i].Requests, prev[i].Requests) || !sameModel(got[i].Model, prev[i].Model) {
					t.Fatalf("%s: group %d changed with no event:\n now    %s\n before %s", st.label, i, describeGroups(got), describeGroups(prev))
				}
				if !st.invalidate && got[i].Model != prev[i].Model {
					t.Fatalf("%s: group %d (%s) is a fresh copy of the window before's model", st.label, i, got[i].Model.Name)
				}
			}
		}
		prev = got
	}
}

// TestCoalesceLightSplitsSameNameDifferentStructure: a custom model that
// reuses a zoo name but differs in structure must not be batched with its
// namesake. Bucketing by name built one SqueezeNet×2 group from the first
// clone and planned the second request as something it is not. The second
// pass runs with the first clone's batching state on the planner's cost
// cache, under the key the doubled clone shares with it.
func TestCoalesceLightSplitsSameNameDifferentStructure(t *testing.T) {
	clone := model.MustByName(model.SqueezeNet).Clone()
	doubled := model.MustByName(model.SqueezeNet).Clone()
	for i := range doubled.Layers {
		doubled.Layers[i].FLOPs *= 2
	}
	requests := []*model.Model{model.MustByName(model.VGG16), clone, doubled}
	pl := coalescePlanner(t, soc.Kirin990)
	for pass := 0; pass < 2; pass++ {
		groups := checkCoalesce(t, fmt.Sprintf("same name, different structure, pass %d", pass), pl, requests, 32)
		if len(groups) != 3 {
			t.Fatalf("pass %d: groups %s, want three solo groups", pass, describeGroups(groups))
		}
		for i, g := range groups {
			if !slices.Equal(g.Requests, []int{i}) || g.Model != requests[i] {
				t.Fatalf("pass %d: group %d = %s, want request %d as itself", pass, i, describeGroups(groups[i:i+1]), i)
			}
		}
	}
}

// FuzzCoalesceLight: any fuzzed window — zoo models, application extras,
// pre-batched variants, pointer-distinct clones and same-named models with
// scaled FLOPs — coalesced by a planner on any preset at maxBatch 0, 1, 2
// or 32, then again after a fuzzed state change (none, the reference
// processor offline, or throttled) applied to the planner's SoC, must keep
// the grouping's invariants both times, and
// must match the reference on the live SoC whenever same-named requests are
// structurally equal.
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
		pl := coalescePlanner(t, func() *soc.SoC { return soc.AllPresets()[pi] })
		maxBatch := coalesceMaxBatches[int(bits>>5)%len(coalesceMaxBatches)]
		label := fmt.Sprintf("%s/bits %#x", pl.SoC().Name, bits)
		checkCoalesce(t, label+"/nominal", pl, window, maxBatch)
		state := "nominal"
		if e := int(bits>>3) % 3; e > 0 {
			ev := coalesceEvents(pl.SoC())[e-1]
			applyEvent(t, pl, ev)
			state = ev.Kind.String()
		}
		checkCoalesce(t, label+"/"+state, pl, window, maxBatch)
	})
}
