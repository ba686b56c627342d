package fleet

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stats"
	"hetero2pipe/internal/stream"
)

// The policy-stability workload: three mixed presets offered zoo requests
// at a load least-sojourn carries without a growing backlog. 1,200 requests
// leave twelve samples beyond the p99.
const (
	stabilityRequestCount = 1200
	stabilityRate         = 12 // requests per second
	// stabilityBound is the largest p99 sojourn a policy may reach, as a
	// multiple of least-sojourn's on the same requests. Hash reads at most
	// 2.53×; a policy that pins whole models to devices and tracks no load
	// queues BERT and ViT without bound and read at least 10.7×.
	stabilityBound = 4
)

var stabilityPresets = []func() *soc.SoC{soc.Kirin990, soc.Snapdragon778G, soc.Snapdragon870}

// stabilityRequests draws the zoo in seeded shuffled blocks of all ten
// models, so every seed offers the same work in a different order, and
// spaces the draws with the fleet's Poisson arrivals.
func stabilityRequests(seed uint64) []stream.Request {
	rng := rand.New(rand.NewSource(int64(seed)))
	names := model.Names()
	models := make([]*model.Model, 0, stabilityRequestCount)
	for len(models) < stabilityRequestCount {
		for _, j := range rng.Perm(len(names)) {
			models = append(models, model.MustByName(names[j]))
		}
	}
	return PoissonArrivals(models[:stabilityRequestCount], time.Second/stabilityRate, seed, len(stabilityPresets))
}

// stabilityFleet builds a fresh fleet of the stability presets under
// policy; dev0 runs the given degradation timeline.
func stabilityFleet(tb testing.TB, policy Policy, dev0Events []soc.Event) *Fleet {
	tb.Helper()
	devices := make([]*Device, len(stabilityPresets))
	for i, preset := range stabilityPresets {
		popts := core.DefaultOptions()
		popts.PlanCache = 64
		scfg := stream.DefaultConfig()
		if i == 0 {
			scfg.Events = dev0Events
		}
		dev, err := NewDevice(DeviceSpec{Name: fmt.Sprintf("dev%d", i), SoC: preset(), Planner: popts, Stream: scfg}, nil, nil)
		if err != nil {
			tb.Fatal(err)
		}
		devices[i] = dev
	}
	fl, err := New(devices, Config{Policy: policy})
	if err != nil {
		tb.Fatal(err)
	}
	return fl
}

// sojournPercentile is the nearest-rank p-th percentile of a run's sojourns.
func sojournPercentile(res *Result, p int) time.Duration {
	sorted := slices.Clone(res.Sojourns)
	slices.Sort(sorted)
	return stats.NearestRank(sorted, p)
}

// TestPolicyStability: at an offered load least-sojourn carries, every
// policy PolicyByName accepts keeps its p99 sojourn within stabilityBound
// of least-sojourn's. The fleet runs on the virtual clock only, so the
// check is deterministic on any machine.
func TestPolicyStability(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		reqs := stabilityRequests(seed)
		p99 := make(map[string]time.Duration)
		for _, name := range PolicyNames() {
			policy, err := PolicyByName(name)
			if err != nil {
				t.Fatal(err)
			}
			res, err := stabilityFleet(t, policy, nil).RunContext(t.Context(), reqs, pipeline.DefaultOptions())
			if err != nil {
				t.Fatalf("seed %d, %s: %v", seed, name, err)
			}
			p99[name] = sojournPercentile(res, 99)
		}
		ref := p99[PolicyLeastSojourn]
		for _, name := range PolicyNames() {
			t.Logf("seed %d: %s p99 sojourn %v (%.2f× least-sojourn)", seed, name, p99[name], float64(p99[name])/float64(ref))
			if p99[name] > stabilityBound*ref {
				t.Errorf("seed %d: %s p99 sojourn %v exceeds %d× least-sojourn's %v",
					seed, name, p99[name], stabilityBound, ref)
			}
		}
	}
}

// BenchmarkFleetPolicies runs the stability workload at seed 1 under each
// policy, on nominal devices (steady) and with dev0 losing all four
// processors at the median arrival (failover). Each op is one run of a
// freshly built fleet; the simulated sojourn percentiles ride along as
// custom metrics, so the ledger compares the policies' latency beside
// their host cost.
func BenchmarkFleetPolicies(b *testing.B) {
	reqs := stabilityRequests(1)
	for _, name := range PolicyNames() {
		for _, sc := range []struct {
			name   string
			events []soc.Event
		}{
			{"steady", nil},
			{"failover", kirinAllOffline(reqs[len(reqs)/2].Arrival)},
		} {
			b.Run(name+"/"+sc.name, func(b *testing.B) {
				b.ReportAllocs()
				var res *Result
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					policy, err := PolicyByName(name)
					if err != nil {
						b.Fatal(err)
					}
					fl := stabilityFleet(b, policy, sc.events)
					b.StartTimer()
					if res, err = fl.RunContext(b.Context(), reqs, pipeline.DefaultOptions()); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(sojournPercentile(res, 50))/1e6, "sojourn-p50-ms")
				b.ReportMetric(float64(sojournPercentile(res, 99))/1e6, "sojourn-p99-ms")
			})
		}
	}
}
