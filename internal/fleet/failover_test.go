package fleet

import (
	"reflect"
	"testing"
	"time"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/stream"
)

// routeRecorder wraps a policy and records every Route call as a
// (request, device) pair, in call order.
type routeRecorder struct {
	Policy
	routes [][2]int
}

func (p *routeRecorder) Route(m *model.Model, seq int, live []int, devices []*Device) int {
	dev := p.Policy.Route(m, seq, live, devices)
	p.routes = append(p.routes, [2]int{seq, dev})
	return dev
}

// normalizeFleet zeroes every planner wall-clock field of a fleet result —
// the only fields two identical virtual-clock runs may differ in.
func normalizeFleet(res *Result) {
	runs := append([]*stream.Result(nil), res.PerDevice...)
	for _, hs := range res.HandoffResults {
		runs = append(runs, hs...)
	}
	for _, r := range runs {
		if r == nil {
			continue
		}
		normalizeWall(r)
		for i := range r.Timelines {
			r.Timelines[i].Breakdown.PlanWall = 0
		}
		if r.Report != nil && r.Report.Decomposition != nil {
			r.Report.Decomposition.PlanWallMS = 0
		}
	}
	for i := range res.Timelines {
		res.Timelines[i].Breakdown.PlanWall = 0
	}
	if res.Report != nil && res.Report.Decomposition != nil {
		res.Report.Decomposition.PlanWallMS = 0
	}
}

// TestFleetFailoverRoutesInDeviceOrder: when two devices halt in the same
// round, the failover round re-routes their backlogs in device order —
// dev0's, then dev1's, each in its run's Unfinished order — so a stateful
// policy (least-sojourn) sees the same Route sequence on every run, and
// fresh fleets give identical results. A previous version collected the
// backlogs by iterating a map of results, so the order, and with it the
// least-sojourn routing and the completions, changed from run to run.
func TestFleetFailoverRoutesInDeviceOrder(t *testing.T) {
	names := []string{model.ResNet50, model.SqueezeNet, model.GoogLeNet, model.MobileNetV2, model.VGG16}
	const n = 40
	run := func() (*Result, [][2]int) {
		devices := []*Device{
			testDevice(t, "dev0", nil, kirinAllOffline(2*time.Millisecond)),
			testDevice(t, "dev1", nil, kirinAllOffline(2*time.Millisecond)),
			testDevice(t, "dev2", nil, nil),
			testDevice(t, "dev3", nil, nil),
		}
		rec := &routeRecorder{Policy: NewLeastSojournPolicy()}
		fl, err := New(devices, Config{Policy: rec})
		if err != nil {
			t.Fatal(err)
		}
		res, err := fl.RunContext(t.Context(), cycledRequests(t, names, n, 300*time.Microsecond), pipeline.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		normalizeFleet(res)
		return res, rec.routes
	}

	want, wantRoutes := run()
	var backlog []int
	for dev := 0; dev < 2; dev++ {
		r := want.PerDevice[dev]
		if r == nil || !r.Halted {
			t.Fatalf("dev%d did not halt in the primary round; scenario broken", dev)
		}
		for _, local := range r.Unfinished {
			backlog = append(backlog, want.Assignments[dev][local])
		}
	}
	if len(wantRoutes) != n+len(backlog) {
		t.Fatalf("%d Route calls, want %d primary + %d failover", len(wantRoutes), n, len(backlog))
	}
	for k, fi := range backlog {
		if got := wantRoutes[n+k][0]; got != fi {
			t.Fatalf("failover route %d is request %d, want %d (dev0's backlog, then dev1's): %v",
				k, got, fi, wantRoutes[n:])
		}
	}

	for i := 1; i < 20; i++ {
		got, routes := run()
		if !reflect.DeepEqual(routes, wantRoutes) {
			t.Fatalf("run %d routed %v, run 0 routed %v", i, routes, wantRoutes)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d result diverges from run 0: completions %v, want %v",
				i, got.Completions, want.Completions)
		}
	}
}

// TestFleetRunsEmptyStream: a run with no requests still has its primary
// round — empty assignments for every device, a report and a reset status —
// and no failover.
func TestFleetRunsEmptyStream(t *testing.T) {
	fl, err := New([]*Device{testDevice(t, "dev0", nil, nil), testDevice(t, "dev1", nil, nil)}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fl.RunContext(t.Context(), nil, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignments) != 2 || len(res.Assignments[0])+len(res.Assignments[1]) != 0 {
		t.Errorf("assignments %v, want two empty shards", res.Assignments)
	}
	if res.Report == nil || res.Report.Requests != 0 || res.Report.Completed != 0 || len(res.Report.PerDevice) != 2 {
		t.Errorf("report %+v, want an empty two-device report", res.Report)
	}
	if st := fl.Status(); st.Running || st.Requests != 0 || st.Completed != 0 {
		t.Errorf("status %+v, want an idle empty run", st)
	}
}
