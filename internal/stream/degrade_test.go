package stream

import (
	"context"
	"errors"
	"testing"
	"time"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/workload"
)

func burstRequests(t *testing.T, names ...string) []Request {
	t.Helper()
	models, err := workload.Instantiate(names)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Request, len(models))
	for i, m := range models {
		out[i] = Request{Model: m}
	}
	return out
}

func checkAllComplete(t *testing.T, reqs []Request, res *Result) {
	t.Helper()
	for i := range reqs {
		if res.Completions[i] < reqs[i].Arrival || res.Completions[i] <= 0 {
			t.Errorf("request %d completion %v inconsistent with arrival %v",
				i, res.Completions[i], reqs[i].Arrival)
		}
		if res.Completions[i] > res.Makespan {
			t.Errorf("request %d completes at %v after makespan %v",
				i, res.Completions[i], res.Makespan)
		}
	}
}

// TestStreamDegradationOfflineReplan is the acceptance scenario: the NPU
// goes offline strictly inside the first window's execution. The window
// must be interrupted and replanned onto the surviving processors, every
// request must still complete, and the result must report the replan.
func TestStreamDegradationOfflineReplan(t *testing.T) {
	names := []string{
		model.ResNet50, model.GoogLeNet, model.BERT,
		model.ResNet50, model.GoogLeNet, model.BERT,
	}
	// Baseline run (no events) to learn the first window's makespan.
	base := newScheduler(t, DefaultConfig())
	baseRes, err := base.RunContext(t.Context(), burstRequests(t, names...), pipeline.DefaultOptions())
	if err != nil {
		t.Fatalf("baseline run: %v", err)
	}
	if baseRes.Replans != 0 || baseRes.EventsApplied != 0 {
		t.Fatalf("baseline reports degradation activity: %+v", baseRes)
	}

	cfg := DefaultConfig()
	cfg.Events = []soc.Event{
		{Kind: soc.EventProcessorOffline, Processor: "npu", At: baseRes.WindowStats[0].End / 3},
	}
	pl, err := core.NewPlanner(soc.Kirin990(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := burstRequests(t, names...)
	res, err := s.RunContext(t.Context(), reqs, pipeline.DefaultOptions())
	if err != nil {
		t.Fatalf("degraded run: %v", err)
	}
	checkAllComplete(t, reqs, res)
	if res.Replans < 1 {
		t.Errorf("expected at least one replan, got %d", res.Replans)
	}
	if res.Retried < 1 {
		t.Errorf("expected requeued requests, got Retried=%d", res.Retried)
	}
	if res.EventsApplied != 1 {
		t.Errorf("EventsApplied = %d, want 1", res.EventsApplied)
	}
	interrupted := 0
	for _, ws := range res.WindowStats {
		if ws.Interrupted {
			interrupted++
			if ws.Requeued < 1 {
				t.Error("interrupted window requeued nothing")
			}
			if ws.End != cfg.Events[0].At {
				t.Errorf("interrupted window ends at %v, want event time %v", ws.End, cfg.Events[0].At)
			}
		}
	}
	if interrupted != res.Replans {
		t.Errorf("interrupted windows %d != Replans %d", interrupted, res.Replans)
	}
	if !pl.SoC().Processors[0].Degrade.Offline {
		t.Error("npu not marked offline after the run")
	}
	// The degraded tail must be slower than the full-SoC baseline.
	if res.Makespan <= baseRes.Makespan {
		t.Errorf("degraded makespan %v not above baseline %v", res.Makespan, baseRes.Makespan)
	}
}

// TestStreamDegradationPartialInvalidation: a throttle on one processor
// between two identical bursts must re-measure only that processor's cost
// tables — every lookup in the second burst still reports a cache hit for
// the untouched tables.
func TestStreamDegradationPartialInvalidation(t *testing.T) {
	pl, err := core.NewPlanner(soc.Kirin990(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	names := []string{model.ResNet50, model.SqueezeNet, model.GoogLeNet}
	cfg := Config{MaxWindow: 8, MaxBatch: 1}
	warm, err := NewScheduler(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := warm.RunContext(t.Context(), burstRequests(t, names...), pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheMisses != uint64(len(names)) {
		t.Fatalf("cold run misses = %d, want %d", res.CacheMisses, len(names))
	}

	cfg.Events = []soc.Event{{Kind: soc.EventThermalThrottle, Processor: "gpu", Factor: 2}}
	hot, err := NewScheduler(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err = hot.RunContext(t.Context(), burstRequests(t, names...), pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Each model re-measures the throttled gpu table (a miss) while reusing
	// the other processors' tables (a hit on the same lookup).
	if res.CacheMisses != uint64(len(names)) {
		t.Errorf("post-throttle misses = %d, want %d (gpu tables only)", res.CacheMisses, len(names))
	}
	if res.CacheHits != uint64(len(names)) {
		t.Errorf("post-throttle hits = %d, want %d (unaffected tables reused)", res.CacheHits, len(names))
	}

	// A third identical burst is fully warm again.
	cold, err := NewScheduler(pl, Config{MaxWindow: 8, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}
	res, err = cold.RunContext(t.Context(), burstRequests(t, names...), pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.CacheMisses != 0 || res.CacheHits != uint64(len(names)) {
		t.Errorf("re-warmed run hits=%d misses=%d, want %d/0", res.CacheHits, res.CacheMisses, len(names))
	}
}

// TestStreamDegradationRetryBackoff: every processor goes offline before
// the burst, and comes back a few milliseconds later. Planning must fail,
// back off on the virtual clock until the recovery events come due, then
// complete the whole stream.
func TestStreamDegradationRetryBackoff(t *testing.T) {
	procs := []string{"npu", "cpu-big", "gpu", "cpu-small"}
	var events []soc.Event
	for _, p := range procs {
		events = append(events, soc.Event{Kind: soc.EventProcessorOffline, Processor: p, At: 100 * time.Microsecond})
		events = append(events, soc.Event{Kind: soc.EventProcessorOnline, Processor: p, At: 5 * time.Millisecond})
	}
	cfg := Config{MaxWindow: 8, MaxBatch: 1, MaxRetries: 8, RetryBackoff: 100 * time.Microsecond, Events: events}
	pl, err := core.NewPlanner(soc.Kirin990(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reqs := burstRequests(t, model.ResNet50, model.SqueezeNet)
	res, err := s.RunContext(t.Context(), reqs, pipeline.DefaultOptions())
	if err != nil {
		t.Fatalf("run did not recover: %v", err)
	}
	checkAllComplete(t, reqs, res)
	if res.PlanRetries < 1 {
		t.Errorf("expected plan retries while the SoC was fully offline, got %d", res.PlanRetries)
	}
	if res.EventsApplied != len(events) {
		t.Errorf("EventsApplied = %d, want %d", res.EventsApplied, len(events))
	}
	// Without the retry budget the same scenario must surface the
	// infeasibility as an error.
	pl2, err := core.NewPlanner(soc.Kirin990(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cfg.MaxRetries = 0
	s2, err := NewScheduler(pl2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s2.RunContext(t.Context(), burstRequests(t, model.ResNet50, model.SqueezeNet), pipeline.DefaultOptions()); !errors.Is(err, core.ErrInfeasiblePartition) {
		t.Errorf("zero-retry run error %v does not wrap ErrInfeasiblePartition", err)
	}
}

// TestStreamDegradationDeadlines: a throttle event stretches latencies so a
// tight sojourn budget is missed; the miss is counted, not dropped.
func TestStreamDegradationDeadlines(t *testing.T) {
	base := newScheduler(t, Config{MaxWindow: 4, MaxBatch: 1})
	reqs := burstRequests(t, model.ResNet50, model.GoogLeNet)
	baseRes, err := base.RunContext(t.Context(), reqs, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Deadline halfway below the undegraded sojourn: met only if nothing
	// slows down. Throttle everything 4× from the start.
	var events []soc.Event
	for _, p := range []string{"npu", "cpu-big", "gpu", "cpu-small"} {
		events = append(events, soc.Event{Kind: soc.EventThermalThrottle, Processor: p, Factor: 4})
	}
	pl, err := core.NewPlanner(soc.Kirin990(), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewScheduler(pl, Config{MaxWindow: 4, MaxBatch: 1, Events: events})
	if err != nil {
		t.Fatal(err)
	}
	degraded := burstRequests(t, model.ResNet50, model.GoogLeNet)
	for i := range degraded {
		degraded[i].Deadline = baseRes.Sojourns[i] * 2
	}
	res, err := s.RunContext(t.Context(), degraded, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkAllComplete(t, degraded, res)
	if res.DeadlineMisses < 1 {
		t.Errorf("expected deadline misses under 4x throttle, got %d", res.DeadlineMisses)
	}
}

// TestStreamDegradationCancel: a cancelled context aborts RunContext with
// an error wrapping context.Canceled before any window completes.
func TestStreamDegradationCancel(t *testing.T) {
	s := newScheduler(t, DefaultConfig())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	reqs := burstRequests(t, model.ResNet50, model.SqueezeNet)
	if _, err := s.RunContext(ctx, reqs, pipeline.DefaultOptions()); !errors.Is(err, context.Canceled) {
		t.Errorf("RunContext error %v does not wrap context.Canceled", err)
	}
}

// TestStreamDegradationRetryBackoffSaturates pins the saturation semantics
// of the per-attempt backoff: positive, monotone non-decreasing and capped
// at max(base, 1s) for every attempt, including the ≥ 40 range where the
// pre-fix expression (base << attempt) overflowed time.Duration, went
// negative and moved the virtual clock backwards.
func TestStreamDegradationRetryBackoffSaturates(t *testing.T) {
	base := 500 * time.Microsecond
	prev := time.Duration(0)
	for attempt := 0; attempt <= 200; attempt++ {
		b := retryBackoff(base, attempt)
		if b <= 0 {
			t.Fatalf("attempt %d: backoff %v not positive", attempt, b)
		}
		if b < prev {
			t.Fatalf("attempt %d: backoff %v below previous %v", attempt, b, prev)
		}
		if b > time.Second {
			t.Fatalf("attempt %d: backoff %v above the 1s ceiling", attempt, b)
		}
		prev = b
	}
	if got := retryBackoff(base, 0); got != base {
		t.Errorf("attempt 0 backoff = %v, want base %v", got, base)
	}
	// A base above the default ceiling keeps its own value as the ceiling.
	if got := retryBackoff(3*time.Second, 50); got != 3*time.Second {
		t.Errorf("large-base backoff = %v, want 3s", got)
	}
}

// TestStreamDegradationBackoffOverflowRecovery is the MaxRetries ≥ 40
// regression scenario: every processor goes offline before the burst and
// recovers 40 virtual seconds later. With saturating backoff the scheduler
// needs ~50 one-second-capped retries to reach the recovery and completes
// just past it. The pre-fix doubling backoff raced exponentially past the
// recovery instant (clock ≈ 65.5s after 17 attempts), so both assertions
// below fail on the pre-fix code.
func TestStreamDegradationBackoffOverflowRecovery(t *testing.T) {
	procs := []string{"npu", "cpu-big", "gpu", "cpu-small"}
	var events []soc.Event
	for _, p := range procs {
		events = append(events, soc.Event{Kind: soc.EventProcessorOffline, Processor: p, At: 0})
		events = append(events, soc.Event{Kind: soc.EventProcessorOnline, Processor: p, At: 40 * time.Second})
	}
	cfg := Config{MaxWindow: 4, MaxBatch: 1, MaxRetries: 64, RetryBackoff: 500 * time.Microsecond, Events: events}
	s := newScheduler(t, cfg)
	reqs := burstRequests(t, model.ResNet50)
	res, err := s.RunContext(t.Context(), reqs, pipeline.DefaultOptions())
	if err != nil {
		t.Fatalf("run did not recover: %v", err)
	}
	checkAllComplete(t, reqs, res)
	if res.PlanRetries < 40 {
		t.Errorf("PlanRetries = %d, want ≥ 40 (saturated 1s pauses to cover 40s)", res.PlanRetries)
	}
	if res.Makespan < 40*time.Second || res.Makespan > 45*time.Second {
		t.Errorf("Makespan = %v, want just past the 40s recovery (pre-fix backoff overshot to ~65s)", res.Makespan)
	}
}

// TestStreamDegradationBackoffAdmission is the regression test for window
// admission during plan-retry backoff: request B arrives while the
// scheduler is backing off an infeasible window, and the replanned window
// must include it. Pre-fix the window membership was frozen before the
// retry loop, so B was pushed into a second window (Windows == 2,
// WindowStats[0].Requests == 1).
func TestStreamDegradationBackoffAdmission(t *testing.T) {
	procs := []string{"npu", "cpu-big", "gpu", "cpu-small"}
	var events []soc.Event
	for _, p := range procs {
		events = append(events, soc.Event{Kind: soc.EventProcessorOffline, Processor: p, At: 0})
		events = append(events, soc.Event{Kind: soc.EventProcessorOnline, Processor: p, At: 5 * time.Millisecond})
	}
	cfg := Config{MaxWindow: 4, MaxBatch: 1, MaxRetries: 8, RetryBackoff: 500 * time.Microsecond, Events: events}
	s := newScheduler(t, cfg)
	reqs := burstRequests(t, model.ResNet50, model.SqueezeNet)
	reqs[1].Arrival = time.Millisecond // lands mid-backoff, before recovery
	res, err := s.RunContext(t.Context(), reqs, pipeline.DefaultOptions())
	if err != nil {
		t.Fatalf("run did not recover: %v", err)
	}
	checkAllComplete(t, reqs, res)
	if res.PlanRetries < 1 {
		t.Fatalf("scenario broken: no plan retries, B never arrived mid-backoff")
	}
	if res.Windows != 1 {
		t.Errorf("Windows = %d, want 1 (replanned window admits the mid-backoff arrival)", res.Windows)
	}
	if got := res.WindowStats[0].Requests; got != 2 {
		t.Errorf("WindowStats[0].Requests = %d, want 2", got)
	}
}

// TestStreamDegradationMakespanLastCompletion pins Makespan = max
// completion on a run whose final window plan-retried after the previous
// window's last completion: the backoff legitimately advances the virtual
// clock past every completion, and none of that scheduler-side time may
// leak into Makespan. (An earlier version folded the loop-exit clock into
// Makespan as a final `if now > Makespan` step; the completion-recording
// path already establishes the invariant, and this test keeps it pinned.)
func TestStreamDegradationMakespanLastCompletion(t *testing.T) {
	// Window 1: A alone (MaxWindow 1). After its completion every processor
	// drops offline, so B's window plan-retries across backoff until the
	// recovery comes due.
	base := newScheduler(t, Config{MaxWindow: 1, MaxBatch: 1})
	probe := burstRequests(t, model.ResNet50)
	baseRes, err := base.RunContext(t.Context(), probe, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	tA := baseRes.Completions[0]

	procs := []string{"npu", "cpu-big", "gpu", "cpu-small"}
	var events []soc.Event
	for _, p := range procs {
		events = append(events, soc.Event{Kind: soc.EventProcessorOffline, Processor: p, At: tA + time.Microsecond})
		events = append(events, soc.Event{Kind: soc.EventProcessorOnline, Processor: p, At: tA + 20*time.Millisecond})
	}
	cfg := Config{MaxWindow: 1, MaxBatch: 1, MaxRetries: 16, RetryBackoff: 500 * time.Microsecond, Events: events}
	s := newScheduler(t, cfg)
	reqs := burstRequests(t, model.ResNet50, model.SqueezeNet)
	res, err := s.RunContext(t.Context(), reqs, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkAllComplete(t, reqs, res)
	if res.PlanRetries < 1 {
		t.Fatalf("scenario broken: final window never plan-retried")
	}
	last := res.Completions[0]
	for _, c := range res.Completions {
		if c > last {
			last = c
		}
	}
	if res.Makespan != last {
		t.Errorf("Makespan = %v, want last completion %v (no backoff/idle time folded in)", res.Makespan, last)
	}
}

// TestStreamDegradationBatchedDeadlines covers deadline-miss accounting
// under Appendix-D batching: coalesced same-model requests share one
// completion time but hold their own deadlines, so one shared completion
// must be judged once per member against that member's budget.
func TestStreamDegradationBatchedDeadlines(t *testing.T) {
	names := []string{
		model.ResNet50,
		model.SqueezeNet, model.SqueezeNet, model.SqueezeNet,
		model.SqueezeNet, model.SqueezeNet, model.SqueezeNet,
	}
	reqs := burstRequests(t, names...)
	// ResNet and three of the SqueezeNets get generous budgets; the other
	// three get impossible ones. All seven arrive together.
	reqs[0].Deadline = time.Hour
	for i := 1; i <= 3; i++ {
		reqs[i].Deadline = time.Nanosecond
	}
	for i := 4; i <= 6; i++ {
		reqs[i].Deadline = time.Hour
	}
	s := newScheduler(t, Config{MaxWindow: 8, MaxBatch: 32})
	res, err := s.RunContext(t.Context(), reqs, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	checkAllComplete(t, reqs, res)
	// The light SqueezeNets must actually have been batched: one shared
	// completion time across all six.
	for i := 2; i <= 6; i++ {
		if res.Completions[i] != res.Completions[1] {
			t.Fatalf("SqueezeNet completions differ (%v vs %v): batching did not group them",
				res.Completions[i], res.Completions[1])
		}
	}
	if res.DeadlineMisses != 3 {
		t.Errorf("DeadlineMisses = %d, want 3 (per-member budgets on a shared completion)", res.DeadlineMisses)
	}
}
