package pipeline

import (
	"math/rand"
	"testing"
	"time"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// randomValidCuts generates a random valid boundary vector whose non-empty
// stages are all supported.
func randomValidCuts(rng *rand.Rand, p *profile.Profile, stages int) Cuts {
	n := p.NumLayers()
	for attempt := 0; attempt < 50; attempt++ {
		c := make(Cuts, stages+1)
		c[stages] = n
		// Random non-decreasing interior boundaries.
		for b := 1; b < stages; b++ {
			c[b] = c[b-1] + rng.Intn(n-c[b-1]+1)
		}
		ok := true
		for st := 0; st < stages; st++ {
			if c[st+1] > c[st] && !p.Table(st).Supported(c[st], c[st+1]-1) {
				ok = false
				break
			}
		}
		if ok {
			return c
		}
	}
	// Fall back: everything on the big CPU (stage 1 on presets).
	return SingleProcessor(n, 1, stages)
}

// TestExecuteRandomSchedules is the executor's failure-injection sweep:
// hundreds of random valid schedules must execute without deadlock, with
// monotone per-stage request starts and complete, consistent results under
// every option combination.
func TestExecuteRandomSchedules(t *testing.T) {
	s := soc.Kirin990()
	zoo := model.Names()
	profiles := make(map[string]*profile.Profile, len(zoo))
	for _, name := range zoo {
		p, err := profile.New(s, model.MustByName(name))
		if err != nil {
			t.Fatal(err)
		}
		profiles[name] = p
	}
	rng := rand.New(rand.NewSource(1234))
	optionSets := []Options{
		{},
		{Contention: true},
		{EnforceMemory: true},
		{Contention: true, EnforceMemory: true, SampleMemory: true},
	}
	for trial := 0; trial < 120; trial++ {
		m := 1 + rng.Intn(6)
		profs := make([]*profile.Profile, m)
		cuts := make([]Cuts, m)
		for i := 0; i < m; i++ {
			p := profiles[zoo[rng.Intn(len(zoo))]]
			profs[i] = p
			cuts[i] = randomValidCuts(rng, p, s.NumProcessors())
		}
		sched, err := FromCuts(s, profs, cuts)
		if err != nil {
			t.Fatalf("trial %d: FromCuts: %v", trial, err)
		}
		opts := optionSets[trial%len(optionSets)]
		res, err := ExecuteContext(t.Context(), sched, opts)
		if err != nil {
			t.Fatalf("trial %d: Execute: %v", trial, err)
		}
		if res.Makespan <= 0 {
			t.Fatalf("trial %d: makespan %v", trial, res.Makespan)
		}
		for i, c := range res.Completions {
			if c <= 0 || c > res.Makespan {
				t.Fatalf("trial %d: completion[%d] = %v outside (0, %v]", trial, i, c, res.Makespan)
			}
		}
		if res.EnergyJoules <= 0 {
			t.Fatalf("trial %d: energy %v", trial, res.EnergyJoules)
		}
		// Per-stage starts are monotone in request index (FIFO service).
		lastStart := make([]time.Duration, s.NumProcessors())
		lastReq := make([]int, s.NumProcessors())
		for k := range lastReq {
			lastReq[k] = -1
		}
		for _, e := range res.Timeline {
			if lastReq[e.Stage] >= 0 {
				if e.Request < lastReq[e.Stage] {
					t.Fatalf("trial %d: stage %d served request %d after %d",
						trial, e.Stage, e.Request, lastReq[e.Stage])
				}
				if e.Start < lastStart[e.Stage] {
					t.Fatalf("trial %d: stage %d starts went backwards", trial, e.Stage)
				}
			}
			lastReq[e.Stage] = e.Request
			lastStart[e.Stage] = e.Start
		}
		// Contention can only lengthen the run.
		if opts.Contention {
			ideal, err := ExecuteContext(t.Context(), sched, Options{EnforceMemory: opts.EnforceMemory})
			if err != nil {
				t.Fatal(err)
			}
			if res.Makespan < ideal.Makespan {
				t.Fatalf("trial %d: contended %v faster than ideal %v", trial, res.Makespan, ideal.Makespan)
			}
		}
	}
}

// TestExecutorLowerBounds: without contention, the makespan can never beat
// two classic scheduling lower bounds — the busiest processor's total work
// and every request's own critical path (its stage-time sum).
func TestExecutorLowerBounds(t *testing.T) {
	s := soc.Kirin990()
	zoo := model.Names()
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 40; trial++ {
		m := 1 + rng.Intn(5)
		profs := make([]*profile.Profile, m)
		cuts := make([]Cuts, m)
		for i := 0; i < m; i++ {
			p, err := profile.New(s, model.MustByName(zoo[rng.Intn(len(zoo))]))
			if err != nil {
				t.Fatal(err)
			}
			profs[i] = p
			cuts[i] = randomValidCuts(rng, p, s.NumProcessors())
		}
		sched, err := FromCuts(s, profs, cuts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ExecuteContext(t.Context(), sched, Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Bound 1: busiest processor.
		busy := make([]time.Duration, s.NumProcessors())
		for i := 0; i < m; i++ {
			for k := 0; k < s.NumProcessors(); k++ {
				if d := sched.StageTime(i, k); d != soc.InfDuration {
					busy[k] += d
				}
			}
		}
		for k, b := range busy {
			if res.Makespan < b-time.Microsecond {
				t.Fatalf("trial %d: makespan %v below stage-%d busy %v", trial, res.Makespan, k, b)
			}
		}
		// Bound 2: each request's own chain.
		for i := 0; i < m; i++ {
			var chain time.Duration
			for k := 0; k < s.NumProcessors(); k++ {
				if d := sched.StageTime(i, k); d != soc.InfDuration {
					chain += d
				}
			}
			if res.Completions[i] < chain-time.Microsecond {
				t.Fatalf("trial %d: request %d completes at %v before its chain %v",
					trial, i, res.Completions[i], chain)
			}
		}
	}
}
