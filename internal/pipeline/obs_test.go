package pipeline

import (
	"testing"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/soc"
)

// TestObsAdmissionStallEpisodes is the regression test for the stall
// accounting bug: AdmissionStalls used to increment on every tryStart pass
// while a request waited at admission, so a single stalled request inflated
// the counter by the number of completion events it sat through. The
// scenario pins that down: capacity fits exactly request 0, request 0 runs
// three pipeline slices, and request 1 fails admission after each of the
// first two slice completions (two scheduler wake-ups, one contiguous
// wait). Fixed semantics: one episode, count == 1; the pre-fix code
// reported 2.
func TestObsAdmissionStallEpisodes(t *testing.T) {
	s := soc.Kirin990()
	profs := profilesFor(t, s, model.VGG16, model.ResNet50)
	cuts := []Cuts{evenCuts(profs[0], 4), evenCuts(profs[1], 4)}
	sched, err := FromCuts(s, profs, cuts)
	if err != nil {
		t.Fatal(err)
	}
	// Room for exactly request 0: request 1 stalls until request 0 leaves.
	s.MemoryCapacityBytes = referenceMemory(sched, 0)

	res, err := ExecuteContext(t.Context(), sched, Options{EnforceMemory: true})
	if err != nil {
		t.Fatal(err)
	}
	// Sanity: the stall must actually have spanned several wake-ups —
	// request 0 occupies three stages, so request 1 waits through at least
	// two slice completions before admission.
	if got := len(res.Timeline); got < 6 {
		t.Fatalf("expected ≥ 6 slices (3 per request), got %d", got)
	}
	if res.AdmissionStalls != 1 {
		t.Fatalf("AdmissionStalls = %d, want 1 (one episode for request 1's contiguous wait)", res.AdmissionStalls)
	}
}

// TestObsExecutorMetrics checks the registry wiring: a run with
// Options.Metrics set must publish counts that match the Result exactly.
func TestObsExecutorMetrics(t *testing.T) {
	s := soc.Kirin990()
	profs := profilesFor(t, s, model.ResNet50, model.SqueezeNet)
	cuts := []Cuts{evenCuts(profs[0], 4), evenCuts(profs[1], 4)}
	sched, err := FromCuts(s, profs, cuts)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry("h2pipe")
	opts := DefaultOptions()
	opts.Metrics = reg
	res, err := ExecuteContext(t.Context(), sched, opts)
	if err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["executor_runs_total"]; got != 1 {
		t.Errorf("executor_runs_total = %d, want 1", got)
	}
	if got := snap.Counters["executor_slices_total"]; got != uint64(len(res.Timeline)) {
		t.Errorf("executor_slices_total = %d, want %d", got, len(res.Timeline))
	}
	if got := snap.Histograms["executor_slowdown"].Count; got != uint64(len(res.Timeline)) {
		t.Errorf("executor_slowdown count = %d, want %d", got, len(res.Timeline))
	}
	if got := snap.Gauges["executor_peak_memory_bytes"]; got != float64(res.PeakMemoryBytes) {
		t.Errorf("executor_peak_memory_bytes = %v, want %d", got, res.PeakMemoryBytes)
	}
	if got := snap.Histograms["executor_makespan_seconds"].Count; got != 1 {
		t.Errorf("executor_makespan_seconds count = %d, want 1", got)
	}
	// No registry: same run must succeed without publishing anywhere.
	if _, err := ExecuteContext(t.Context(), sched, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if got := reg.Snapshot().Counters["executor_runs_total"]; got != 1 {
		t.Errorf("registry picked up a run it was not attached to: %d", got)
	}
}
