package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// Cell-search reference differential. The Algorithm-1 DP brackets each
// cell's split point by binary search instead of scanning split points left
// to right; the candidate-sweep reference cannot see that change, because it
// calls the live partition DP. So the scan the bracketed search replaced is
// kept verbatim below, and every test here requires the live cellSearch to
// return the same split index and the same value bits on every cell of
// every stage.

// referenceCellByScan minimises max(prev[i], cost(i, j)) exactly, pruning on the
// monotone prev: once prev[i] ≥ the best value so far, no larger i helps.
func referenceCellByScan(p *profile.Profile, prev []float64, stage, j int) (int, float64) {
	bestI, bestV := j+1, math.Max(prev[j+1], 0) // empty slice candidate
	for i := 0; i <= j; i++ {
		if prev[i] >= bestV {
			break
		}
		v := math.Max(prev[i], sliceSeconds(p, stage, i, j))
		if v < bestV {
			bestI, bestV = i, v
		}
	}
	return bestI, bestV
}

// compareCells fills p's DP table with the reference scan and, on every
// cell of every stage, requires cellSearch over the same previous row to
// agree on the split index and the value bits. It then requires
// PartitionContext to return the cuts backtracked from the reference
// scan's own split choices, and its bottleneck, and returns the number of
// cells compared.
func compareCells(tb testing.TB, label string, p *profile.Profile) int {
	tb.Helper()
	n, k := p.NumLayers(), p.NumProcessors()
	rows := make([][]float64, k)
	choice := make([][]int, k)
	for s := range rows {
		rows[s] = make([]float64, n+1)
		choice[s] = make([]int, n+1)
	}
	for j := 0; j < n; j++ {
		rows[0][j+1] = sliceSeconds(p, 0, 0, j)
	}
	cells := 0
	for stage := 1; stage < k; stage++ {
		prev, dp := rows[stage-1], rows[stage]
		dp[0] = prev[0]
		cross := 0
		for j := 0; j < n; j++ {
			wantI, wantV := referenceCellByScan(p, prev, stage, j)
			var gotI int
			var gotV float64
			gotI, gotV, cross = cellSearch(p, prev, stage, j, cross)
			if gotI != wantI || math.Float64bits(gotV) != math.Float64bits(wantV) {
				tb.Fatalf("%s: cell (stage %d, j %d): cellSearch = (%d, %v), reference scan = (%d, %v)",
					label, stage, j, gotI, gotV, wantI, wantV)
			}
			dp[j+1], choice[stage][j+1] = wantV, wantI
			cells++
		}
	}
	best := rows[k-1][n]
	cuts, got, err := PartitionContext(tb.Context(), p)
	if math.IsInf(best, 1) {
		if err == nil {
			tb.Fatalf("%s: Partition succeeded on a table with no feasible partition", label)
		}
		return cells
	}
	if err != nil {
		tb.Fatalf("%s: Partition: %v", label, err)
	}
	// cuts[s] is the first layer of stage s; an empty prefix puts every
	// stage below it at layer 0 (choice[s][0] is 0).
	wantCuts := make([]int, k+1)
	wantCuts[k] = n
	for stage := k - 1; stage >= 1; stage-- {
		wantCuts[stage] = choice[stage][wantCuts[stage+1]]
	}
	if !slices.Equal(cuts, wantCuts) || math.Float64bits(got) != math.Float64bits(best) {
		tb.Fatalf("%s: Partition = (%v, %v), reference table = (%v, %v)", label, cuts, got, wantCuts, best)
	}
	return cells
}

// socStates returns the preset in every state the test sweeps: nominal,
// each processor offline in turn, each processor throttled in turn, and
// the bus squeezed. Each state is a fresh preset instance.
func socStates(tb testing.TB, name string) map[string]*soc.SoC {
	tb.Helper()
	apply := func(label string, ev soc.Event) (string, *soc.SoC) {
		s := soc.PresetByName(name)
		if _, err := s.Apply(ev); err != nil {
			tb.Fatalf("%s: %s: %v", name, label, err)
		}
		return label, s
	}
	out := map[string]*soc.SoC{"nominal": soc.PresetByName(name)}
	for _, proc := range soc.PresetByName(name).Processors {
		label, s := apply("offline:"+proc.ID, soc.Event{Kind: soc.EventProcessorOffline, Processor: proc.ID})
		out[label] = s
		label, s = apply("throttle:"+proc.ID, soc.Event{Kind: soc.EventThermalThrottle, Processor: proc.ID, Factor: 2.5})
		out[label] = s
	}
	label, s := apply("bus-squeeze", soc.Event{Kind: soc.EventBandwidthSqueeze, Factor: 0.4})
	out[label] = s
	return out
}

// TestCellSearchReference sweeps every preset × zoo model × batch size
// {1, 4, 8} × SoC state, plus the synthetic chains that break Property 2,
// cell by cell against the reference scan.
func TestCellSearchReference(t *testing.T) {
	cells := 0
	for _, preset := range soc.Presets() {
		for state, s := range socStates(t, preset.Name) {
			for _, name := range model.Names() {
				for _, batch := range []int{1, 4, 8} {
					p, err := profile.New(s, model.Batched(model.MustByName(name), batch))
					if err != nil {
						t.Fatal(err)
					}
					cells += compareCells(t, fmt.Sprintf("%s/%s/%s×%d", preset.Name, state, name, batch), p)
				}
			}
			for _, m := range syntheticChains(t) {
				p, err := profile.New(s, m)
				if err != nil {
					t.Fatal(err)
				}
				cells += compareCells(t, fmt.Sprintf("%s/%s/%s", preset.Name, state, m.Name), p)
			}
		}
	}
	t.Logf("%d DP cells identical to the reference scan", cells)
}

// syntheticChains are the hand-built chains that break Property 2 in each
// of the ways a zoo model does not.
func syntheticChains(tb testing.TB) []*model.Model {
	tb.Helper()
	rng := rand.New(rand.NewSource(2))
	return []*model.Model{
		nonMonotoneCopyModel(tb),
		randomChain(tb, "ZeroTime", rng, 40, 0.5, 0, -1),
		randomChain(tb, "HugeCopy", rng, 40, 0, 0, 17),
		randomChain(tb, "NPUIslands", rng, 48, 0, 0.3, -1),
		randomChain(tb, "Mixed", rng, 64, 0.25, 0.25, 31),
	}
}

// nonMonotoneCopyModel builds a chain whose boundary tensors alternate
// between huge and tiny: the copy-in term T^c(i) of Eq. (2) then spikes on
// every even boundary, so the combined exec+copy slice cost is deliberately
// NOT non-increasing in the start index.
func nonMonotoneCopyModel(tb testing.TB) *model.Model {
	tb.Helper()
	const n = 24
	layers := make([]model.Layer, n)
	in := int64(16 << 20)
	first := in
	for i := range layers {
		out := int64(4 << 10)
		if i%2 == 0 {
			out = 16 << 20
		}
		layers[i] = model.Layer{
			Name:            fmt.Sprintf("l%d", i),
			Kind:            model.OpConv,
			FLOPs:           2e8 + 1e7*float64(i%5),
			InputBytes:      in,
			OutputBytes:     out,
			WeightBytes:     256 << 10,
			WorkingSetBytes: 1 << 20,
		}
		in = out
	}
	m := &model.Model{Name: "NonMonotoneCopy", Layers: layers, InputBytes: first}
	if err := m.Validate(); err != nil {
		tb.Fatalf("synthetic model invalid: %v", err)
	}
	return m
}

// randomChain builds an n-layer chain from rng: a zeroFrac share of
// zero-time layers (no FLOPs and no traffic, so the boundaries around them
// copy nothing), an unsupFrac share of layers the NPU cannot run (runs of
// them form unsupported islands), and — when hugeAt ≥ 0 — a 3 GiB tensor
// crossing the boundary after layer hugeAt.
func randomChain(tb testing.TB, name string, rng *rand.Rand, n int, zeroFrac, unsupFrac float64, hugeAt int) *model.Model {
	tb.Helper()
	zero := make([]bool, n)
	for i := 1; i < n; i++ { // the model input is never empty, so layer 0 never is
		zero[i] = i != hugeAt+1 && rng.Float64() < zeroFrac
	}
	layers := make([]model.Layer, n)
	first := int64(1+rng.Intn(4)) << 20
	in := first
	for i := range layers {
		l := model.Layer{Name: fmt.Sprintf("l%d", i), Kind: model.OpConv, InputBytes: in}
		if rng.Float64() < unsupFrac {
			l.Kind = model.OpAttention
		}
		if !zero[i] {
			l.FLOPs = float64(rng.Intn(4e8))
			l.WeightBytes = int64(rng.Intn(8 << 20))
			l.WorkingSetBytes = int64(rng.Intn(4 << 20))
			l.OutputBytes = int64(1+rng.Intn(1<<12)) << 10
		}
		switch {
		case i == hugeAt:
			l.OutputBytes = 3 << 30
		case i+1 < n && zero[i+1]:
			l.OutputBytes = 0
		}
		layers[i] = l
		in = l.OutputBytes
	}
	m := &model.Model{Name: name, Layers: layers, InputBytes: first}
	if err := m.Validate(); err != nil {
		tb.Fatalf("synthetic chain %s invalid: %v", name, err)
	}
	return m
}

// FuzzCellSearch fuzzes the cell-search differential over random chains —
// any (seed, layer count, shape bits) on any preset in any degradation
// state must search every DP cell to the reference scan's index and value
// bits.
func FuzzCellSearch(f *testing.F) {
	f.Add(int64(1), uint8(24), uint8(0))
	f.Add(int64(7), uint8(64), uint8(0x3f))
	f.Add(int64(-99), uint8(3), uint8(0x12))
	f.Add(int64(2026), uint8(120), uint8(0x25))
	presets := soc.Presets()
	f.Fuzz(func(t *testing.T, seed int64, n uint8, shape uint8) {
		rng := rand.New(rand.NewSource(seed))
		layers := 1 + int(n)%160
		zeroFrac := float64(shape&3) / 4
		unsupFrac := float64(shape>>2&3) / 4
		hugeAt := -1
		if shape&0x10 != 0 {
			hugeAt = rng.Intn(layers)
		}
		m := randomChain(t, "Fuzz", rng, layers, zeroFrac, unsupFrac, hugeAt)
		name := presets[int(shape>>5)%len(presets)].Name
		s := soc.PresetByName(name)
		if shape&0x80 != 0 {
			proc := s.Processors[rng.Intn(len(s.Processors))].ID
			ev := soc.Event{Kind: soc.EventThermalThrottle, Processor: proc, Factor: 1 + 3*rng.Float64()}
			if rng.Intn(2) == 0 {
				ev = soc.Event{Kind: soc.EventProcessorOffline, Processor: proc}
			}
			if _, err := s.Apply(ev); err != nil {
				t.Fatal(err)
			}
		}
		p, err := profile.New(s, m)
		if err != nil {
			t.Fatal(err)
		}
		compareCells(t, fmt.Sprintf("seed %d on %s", seed, name), p)
	})
}
