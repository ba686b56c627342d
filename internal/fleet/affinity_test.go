package fleet

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stream"
)

// runPolicyFleet runs a fixed recurring workload — 4 distinct models cycled
// into 64 requests against 2 identical devices with whole-plan caches — under
// the given policy and returns the fleet-wide planner_plan_cache_hits_total.
func runPolicyFleet(t *testing.T, policy Policy) uint64 {
	t.Helper()
	reg := obs.NewRegistry("h2pipe")
	devices := []*Device{
		testDevice(t, "dev0", reg, nil),
		testDevice(t, "dev1", reg, nil),
	}
	fl, err := New(devices, Config{Policy: policy, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{model.ResNet50, model.SqueezeNet, model.GoogLeNet, model.MobileNetV2}
	requests := cycledRequests(t, names, 64, 50*time.Microsecond)
	res, err := fl.Run(requests, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.Handoffs != 0 {
		t.Fatalf("steady-state run recorded %d handoffs", res.Handoffs)
	}
	var hits uint64
	for key, v := range reg.Snapshot().Counters {
		if strings.HasPrefix(key, "planner_plan_cache_hits_total") {
			hits += v
		}
	}
	return hits
}

// TestAffinityBeatsHashOnPlanCache pins the point of the affinity policy:
// against the same recurring request mix, pinning models to devices must
// reproduce window signatures and therefore score strictly more whole-plan
// cache hits (planner_plan_cache_hits_total across the fleet) than scattering
// requests by consistent hash.
func TestAffinityBeatsHashOnPlanCache(t *testing.T) {
	hashHits := runPolicyFleet(t, NewHashPolicy())
	affinityHits := runPolicyFleet(t, NewAffinityPolicy())
	t.Logf("plan cache hits: hash=%d affinity=%d", hashHits, affinityHits)
	if affinityHits <= hashHits {
		t.Errorf("affinity policy scored %d plan-cache hits, hash scored %d — affinity must win on a recurring mix",
			affinityHits, hashHits)
	}
	if affinityHits == 0 {
		t.Error("affinity policy scored zero plan-cache hits — windows never recur?")
	}
}

// TestAffinityFrontierPeek: under frontier planning the affinity policy must
// still see which device holds a model's plan. A device that planned the
// model in frontier mode wins the route over the model's hash-ring home.
func TestAffinityFrontierPeek(t *testing.T) {
	devices := make([]*Device, 2)
	for i := range devices {
		popts := core.DefaultOptions()
		popts.PlanCache = 8
		dev, err := NewDevice(DeviceSpec{
			Name:    fmt.Sprintf("dev%d", i),
			SoC:     soc.Kirin990(),
			Planner: popts,
			Stream:  stream.Config{MaxWindow: 3, MaxBatch: 1, Objective: core.ObjectiveFrontier},
		}, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		devices[i] = dev
	}
	m := model.MustByName(model.SqueezeNet)
	live := []int{0, 1}
	p := NewAffinityPolicy()
	p.Reset(devices)
	home := p.Route(m, 0, live, devices)
	other := 1 - home

	if _, err := devices[other].Run(t.Context(), []stream.Request{{Model: m}}, stream.Config{}, pipeline.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if !devices[other].HasCachedPlan([]*model.Model{m}) {
		t.Fatalf("dev%d planned %s in frontier mode but reports no cached plan", other, m.Name)
	}
	p = NewAffinityPolicy()
	p.Reset(devices)
	if got := p.Route(m, 0, live, devices); got != other {
		t.Errorf("affinity routed %s to dev%d, want dev%d, which holds its plan (hash home dev%d)", m.Name, got, other, home)
	}
}
