package pipeline

import (
	"encoding/json"
	"testing"
	"time"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

func profilesFor(t *testing.T, s *soc.SoC, names ...string) []*profile.Profile {
	t.Helper()
	out := make([]*profile.Profile, len(names))
	for i, n := range names {
		p, err := profile.New(s, model.MustByName(n))
		if err != nil {
			t.Fatalf("profile %s: %v", n, err)
		}
		out[i] = p
	}
	return out
}

// cpuOnlyCuts places the whole model on the big CPU (stage 1 on Kirin 990).
func cpuOnlyCuts(p *profile.Profile, stages int) Cuts {
	return SingleProcessor(p.NumLayers(), 1, stages)
}

// balancedTwoStage splits the model across CPU_B (stage 1) and GPU (stage 2)
// at the boundary that best balances the two stage times.
func balancedTwoStage(p *profile.Profile, stages int) Cuts {
	n := p.NumLayers()
	best, bestDiff := 1, time.Duration(1<<62)
	for j := 1; j < n; j++ {
		a := p.ExecTime(1, 0, j-1)
		b := p.ExecTime(2, j, n-1)
		diff := a - b
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			bestDiff, best = diff, j
		}
	}
	c := make(Cuts, stages+1)
	c[1] = 0
	c[2] = best
	for k := 3; k <= stages; k++ {
		c[k] = n
	}
	return c
}

// evenCuts splits the model into equal layer counts over the supported
// stages (skipping the NPU to avoid unsupported ranges).
func evenCuts(p *profile.Profile, stages int) Cuts {
	n := p.NumLayers()
	c := make(Cuts, stages+1)
	c[0] = 0
	c[1] = 0 // NPU skipped
	per := n / (stages - 1)
	for k := 2; k < stages; k++ {
		c[k] = c[k-1] + per
	}
	c[stages] = n
	return c
}

func TestValidCuts(t *testing.T) {
	if !ValidCuts(Cuts{0, 2, 5, 5, 9}, 9, 4) {
		t.Error("valid cuts rejected")
	}
	cases := []Cuts{
		{0, 2, 5, 9},       // wrong length
		{1, 2, 5, 5, 9},    // doesn't start at 0
		{0, 2, 5, 5, 8},    // doesn't end at n
		{0, 5, 2, 5, 9},    // decreasing
		{0, 2, 5, 5, 9, 9}, // too long
	}
	for i, c := range cases {
		if ValidCuts(c, 9, 4) {
			t.Errorf("case %d: invalid cuts %v accepted", i, c)
		}
	}
}

func TestSingleProcessor(t *testing.T) {
	c := SingleProcessor(10, 1, 4)
	want := Cuts{0, 0, 10, 10, 10}
	for i := range want {
		if c[i] != want[i] {
			t.Fatalf("SingleProcessor = %v, want %v", c, want)
		}
	}
	if !ValidCuts(c, 10, 4) {
		t.Error("SingleProcessor cuts invalid")
	}
	rs := c.RangesOf()
	if !rs[0].Empty() || rs[1].Empty() || rs[1].Len() != 10 || !rs[2].Empty() {
		t.Errorf("ranges = %v", rs)
	}
}

func TestScheduleValidate(t *testing.T) {
	s := soc.Kirin990()
	profs := profilesFor(t, s, model.AlexNet, model.ResNet50)
	cuts := []Cuts{
		cpuOnlyCuts(profs[0], 4),
		evenCuts(profs[1], 4),
	}
	sched, err := FromCuts(s, profs, cuts)
	if err != nil {
		t.Fatalf("FromCuts: %v", err)
	}
	if err := sched.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Gap in coverage is rejected.
	bad := sched.Clone()
	bad.Stages[0][1].To--
	if err := bad.Validate(); err == nil {
		t.Error("coverage gap accepted")
	}
	// Unsupported placement is rejected: BERT's embedding on the NPU.
	bp := profilesFor(t, s, model.BERT)
	if _, err := FromCuts(s, bp, []Cuts{{0, 5, bp[0].NumLayers(), bp[0].NumLayers(), bp[0].NumLayers()}}); err == nil {
		t.Error("unsupported NPU slice accepted")
	}
}

func TestFromCutsMismatch(t *testing.T) {
	s := soc.Kirin990()
	profs := profilesFor(t, s, model.AlexNet)
	if _, err := FromCuts(s, profs, nil); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := FromCuts(s, profs, []Cuts{{0, 1, 2}}); err == nil {
		t.Error("invalid cut vector accepted")
	}
}

func TestExecuteSerialMatchesSum(t *testing.T) {
	s := soc.Kirin990()
	profs := profilesFor(t, s, model.AlexNet, model.SqueezeNet)
	cuts := []Cuts{cpuOnlyCuts(profs[0], 4), cpuOnlyCuts(profs[1], 4)}
	sched, err := FromCuts(s, profs, cuts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteContext(t.Context(), sched, Options{})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	want := sched.StageTime(0, 1) + sched.StageTime(1, 1)
	if diff := res.Makespan - want; diff < -time.Microsecond || diff > time.Microsecond {
		t.Errorf("serial makespan = %v, want %v", res.Makespan, want)
	}
	if res.Completions[0] >= res.Completions[1] {
		t.Error("serial completions out of order")
	}
	if res.BubbleTime != 0 {
		t.Errorf("serial bubbles = %v, want 0", res.BubbleTime)
	}
	if res.Throughput() <= 0 {
		t.Error("throughput must be positive")
	}
}

func TestExecutePipelineOverlaps(t *testing.T) {
	s := soc.Kirin990()
	profs := profilesFor(t, s, model.ResNet50, model.ResNet50, model.ResNet50, model.ResNet50)
	var cuts []Cuts
	for _, p := range profs {
		cuts = append(cuts, balancedTwoStage(p, 4))
	}
	sched, err := FromCuts(s, profs, cuts)
	if err != nil {
		t.Fatal(err)
	}
	piped, err := ExecuteContext(t.Context(), sched, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Serial reference: same requests, each whole on CPU big.
	var serialCuts []Cuts
	for _, p := range profs {
		serialCuts = append(serialCuts, cpuOnlyCuts(p, 4))
	}
	serialSched, err := FromCuts(s, profs, serialCuts)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := ExecuteContext(t.Context(), serialSched, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if piped.Makespan >= serial.Makespan {
		t.Errorf("pipelined %v not faster than serial %v", piped.Makespan, serial.Makespan)
	}
	// Pipeline must actually overlap: some timeline entries overlap in time
	// on different stages.
	overlap := false
	for a := range piped.Timeline {
		for b := a + 1; b < len(piped.Timeline); b++ {
			x, y := piped.Timeline[a], piped.Timeline[b]
			if x.Stage != y.Stage && x.Start < y.End && y.Start < x.End {
				overlap = true
			}
		}
	}
	if !overlap {
		t.Error("no overlapping execution found in pipelined timeline")
	}
}

func TestExecuteContentionSlowsDown(t *testing.T) {
	s := soc.Kirin990()
	profs := profilesFor(t, s, model.VGG16, model.VGG16, model.VGG16, model.VGG16)
	var cuts []Cuts
	for _, p := range profs {
		cuts = append(cuts, evenCuts(p, 4))
	}
	sched, err := FromCuts(s, profs, cuts)
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := ExecuteContext(t.Context(), sched, Options{})
	if err != nil {
		t.Fatal(err)
	}
	contended, err := ExecuteContext(t.Context(), sched, Options{Contention: true})
	if err != nil {
		t.Fatal(err)
	}
	if contended.Makespan <= ideal.Makespan {
		t.Errorf("contended %v not slower than ideal %v", contended.Makespan, ideal.Makespan)
	}
	// Dilation within the model's plausible bounds (< 2× here).
	if float64(contended.Makespan) > 2*float64(ideal.Makespan) {
		t.Errorf("contention dilation %v vs %v implausibly large", contended.Makespan, ideal.Makespan)
	}
	// Some slice must report a slowdown above 1.
	found := false
	for _, e := range contended.Timeline {
		if e.Slowdown > 1.001 {
			found = true
		}
	}
	if !found {
		t.Error("no slice reported co-execution slowdown")
	}
}

func TestExecuteDependencyOrder(t *testing.T) {
	s := soc.Kirin990()
	profs := profilesFor(t, s, model.GoogLeNet, model.GoogLeNet)
	var cuts []Cuts
	for _, p := range profs {
		cuts = append(cuts, evenCuts(p, 4))
	}
	sched, err := FromCuts(s, profs, cuts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteContext(t.Context(), sched, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Constraint (8): for each request, stage k starts after stage k-1 ends;
	// per stage, requests run in order.
	startOf := map[[2]int]time.Duration{}
	endOf := map[[2]int]time.Duration{}
	for _, e := range res.Timeline {
		startOf[[2]int{e.Request, e.Stage}] = e.Start
		endOf[[2]int{e.Request, e.Stage}] = e.End
	}
	for key, start := range startOf {
		req, stage := key[0], key[1]
		for prev := stage - 1; prev >= 0; prev-- {
			if end, ok := endOf[[2]int{req, prev}]; ok && start < end {
				t.Errorf("request %d stage %d starts %v before stage %d ends %v",
					req, stage, start, prev, end)
			}
		}
		if prevEnd, ok := endOf[[2]int{req - 1, stage}]; ok && start < prevEnd {
			t.Errorf("request %d stage %d starts %v before request %d finishes %v",
				req, stage, start, req-1, prevEnd)
		}
	}
}

func TestExecuteMemoryConstraint(t *testing.T) {
	s := soc.Kirin990()
	s.MemoryCapacityBytes = 400 << 20 // tight: force admission stalls
	profs := profilesFor(t, s, model.BERT, model.ViT, model.VGG16)
	var cuts []Cuts
	for _, p := range profs {
		cuts = append(cuts, evenCuts(p, 4))
	}
	sched, err := FromCuts(s, profs, cuts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ExecuteContext(t.Context(), sched, Options{EnforceMemory: true, SampleMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.AdmissionStalls == 0 {
		t.Error("tight memory produced no admission stalls")
	}
	if len(res.MemTrace) == 0 {
		t.Error("memory sampling produced no trace")
	}
	// The first admitted request may exceed capacity alone (progress
	// guarantee); once anything is resident no further overshoot admits.
	loose, err := ExecuteContext(t.Context(), sched, Options{EnforceMemory: false})
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakMemoryBytes > loose.PeakMemoryBytes {
		t.Errorf("constrained peak %d above unconstrained %d", res.PeakMemoryBytes, loose.PeakMemoryBytes)
	}
	if res.Makespan < loose.Makespan {
		t.Errorf("constrained makespan %v below unconstrained %v", res.Makespan, loose.Makespan)
	}
}

func TestBubblesAnalytic(t *testing.T) {
	s := soc.Kirin990()
	profs := profilesFor(t, s, model.ResNet50, model.SqueezeNet, model.InceptionV4)
	var cuts []Cuts
	for _, p := range profs {
		cuts = append(cuts, evenCuts(p, 4))
	}
	sched, err := FromCuts(s, profs, cuts)
	if err != nil {
		t.Fatal(err)
	}
	b := sched.Bubbles()
	if b <= 0 {
		t.Errorf("Bubbles() = %v, want > 0 for unbalanced mixed models", b)
	}
	// Perfectly uniform single-stage schedule has zero bubbles per Eq. (3)
	// (every column has one member).
	solo, err := FromCuts(s, profs[:1], []Cuts{evenCuts(profs[0], 4)})
	if err != nil {
		t.Fatal(err)
	}
	if sb := solo.Bubbles(); sb < 0 {
		t.Errorf("solo bubbles = %v", sb)
	}
}

func TestExecuteEmptySchedule(t *testing.T) {
	s := soc.Kirin990()
	sched := &Schedule{SoC: s}
	res, err := ExecuteContext(t.Context(), sched, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 || len(res.Completions) != 0 {
		t.Errorf("empty schedule result %+v", res)
	}
	if res.Throughput() != 0 {
		t.Error("empty schedule throughput != 0")
	}
}

func TestExecuteInvalidSchedule(t *testing.T) {
	s := soc.Kirin990()
	profs := profilesFor(t, s, model.AlexNet)
	sched := &Schedule{SoC: s, Profiles: profs, Stages: [][]LayerRange{{{From: 0, To: 2}}}}
	if _, err := ExecuteContext(t.Context(), sched, DefaultOptions()); err == nil {
		t.Error("invalid schedule accepted")
	}
}

func TestStageTimeEmpty(t *testing.T) {
	s := soc.Kirin990()
	profs := profilesFor(t, s, model.AlexNet)
	sched, err := FromCuts(s, profs, []Cuts{cpuOnlyCuts(profs[0], 4)})
	if err != nil {
		t.Fatal(err)
	}
	if got := sched.StageTime(0, 0); got != 0 {
		t.Errorf("empty stage time = %v, want 0", got)
	}
	if got := sched.StageTime(0, 1); got <= 0 {
		t.Errorf("full stage time = %v, want > 0", got)
	}
}

// TestScheduleJSONRoundTrip: a planned schedule survives serialisation and
// re-executes to the identical result (plan on a workstation, ship to the
// device).
func TestScheduleJSONRoundTrip(t *testing.T) {
	s := soc.Kirin990()
	profs := profilesFor(t, s, model.ResNet50, model.SqueezeNet)
	cuts := []Cuts{balancedTwoStage(profs[0], 4), cpuOnlyCuts(profs[1], 4)}
	sched, err := FromCuts(s, profs, cuts)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(sched)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var loaded Schedule
	if err := json.Unmarshal(data, &loaded); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if err := loaded.Validate(); err != nil {
		t.Fatalf("loaded schedule invalid: %v", err)
	}
	orig, err := ExecuteContext(t.Context(), sched, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := ExecuteContext(t.Context(), &loaded, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if orig.Makespan != replayed.Makespan {
		t.Errorf("replayed makespan %v != original %v", replayed.Makespan, orig.Makespan)
	}
	if len(orig.Timeline) != len(replayed.Timeline) {
		t.Errorf("timeline lengths differ: %d vs %d", len(orig.Timeline), len(replayed.Timeline))
	}
}

func TestScheduleJSONRejectsInvalid(t *testing.T) {
	var sched Schedule
	cases := []string{
		`{`,
		`{"models":[],"stages":[]}`, // missing SoC
		`{"soc":{"name":"x"},"models":[],"stages":[]}`, // invalid SoC
	}
	for i, src := range cases {
		if err := json.Unmarshal([]byte(src), &sched); err == nil {
			t.Errorf("case %d: invalid schedule accepted", i)
		}
	}
}
