package fleet

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stream"
)

// diffModels is the recurring request mix both sides of the differential run.
func diffModels(t testing.TB) []*model.Model {
	t.Helper()
	names := []string{
		model.ResNet50, model.SqueezeNet, model.GoogLeNet,
		model.MobileNetV2, model.ResNet50, model.SqueezeNet,
		model.GoogLeNet, model.MobileNetV2, model.ResNet50,
	}
	models := make([]*model.Model, len(names))
	for i, n := range names {
		models[i] = model.MustByName(n)
	}
	return models
}

// normalizeWall zeroes the only fields legitimately allowed to differ between
// two identical virtual-clock runs: planning wall time, which is measured on
// the host clock.
func normalizeWall(res *stream.Result) {
	for i := range res.WindowStats {
		res.WindowStats[i].PlanWall = 0
	}
	if res.Report != nil {
		res.Report.Planner.PlanWallMS = 0
		for i := range res.Report.Windows {
			res.Report.Windows[i].PlanWallMS = 0
		}
	}
}

// TestDifferentialFleetSingleDevice pins the Device extraction as a pure
// refactor: a 1-device fleet running a full request stream — plan cache on,
// degradation events mid-run — must produce a stream.Result byte-identical
// (completions, sojourns, window stats, report) to stream.Scheduler run
// directly on an identically configured planner.
func TestDifferentialFleetSingleDevice(t *testing.T) {
	events := []soc.Event{
		{Kind: soc.EventThermalThrottle, Processor: "cpu-big", At: 5 * time.Millisecond, Factor: 1.5},
		{Kind: soc.EventProcessorOffline, Processor: "npu", At: 20 * time.Millisecond},
		{Kind: soc.EventProcessorOnline, Processor: "npu", At: 60 * time.Millisecond},
	}
	popts := core.DefaultOptions()
	popts.PlanCache = 8
	scfg := stream.Config{
		MaxWindow:    3,
		MaxBatch:     1,
		MaxRetries:   6,
		RetryBackoff: 500 * time.Microsecond,
		Events:       append([]soc.Event(nil), events...),
	}
	requests := stream.PoissonArrivals(diffModels(t), 2*time.Millisecond, 42)

	// Fleet side: one device, routed through the full Router/failover path.
	dev, err := NewDevice(DeviceSpec{Name: "dev0", SoC: soc.Kirin990(), Planner: popts, Stream: scfg}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fl, err := New([]*Device{dev}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	fres, err := fl.RunContext(t.Context(), append([]stream.Request(nil), requests...), pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if fres.Handoffs != 0 || fres.Down[0] {
		t.Fatalf("single-device fleet run degraded: handoffs=%d down=%v", fres.Handoffs, fres.Down)
	}
	if got := fres.Assignments[0]; len(got) != len(requests) {
		t.Fatalf("router assigned %d of %d requests to the only device", len(got), len(requests))
	}

	// Direct side: a fresh identical planner + scheduler, no fleet anywhere.
	pl, err := core.NewPlanner(soc.Kirin990(), popts)
	if err != nil {
		t.Fatal(err)
	}
	direct := scfg
	direct.HaltInfeasible = true // what the fleet shard runner sets; inert on a run that never halts
	sched, err := stream.NewScheduler(pl, direct)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := sched.RunContext(t.Context(), append([]stream.Request(nil), requests...), pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}

	fr := fres.PerDevice[0]
	normalizeWall(fr)
	normalizeWall(dres)
	if !reflect.DeepEqual(fr, dres) {
		t.Errorf("fleet device result diverges from direct scheduler run\nfleet:  %+v\ndirect: %+v", fr, dres)
	}
	fb, err := json.Marshal(fr)
	if err != nil {
		t.Fatal(err)
	}
	db, err := json.Marshal(dres)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fb, db) {
		t.Errorf("fleet device result not byte-identical to direct run\nfleet:  %s\ndirect: %s", fb, db)
	}

	// The fleet aggregate must restate the single shard exactly.
	for i := range requests {
		if fres.Completions[i] != dres.Completions[i] || fres.Sojourns[i] != dres.Sojourns[i] {
			t.Errorf("request %d: fleet (%v, %v) != direct (%v, %v)",
				i, fres.Completions[i], fres.Sojourns[i], dres.Completions[i], dres.Sojourns[i])
		}
	}
	if fres.Makespan != dres.Makespan {
		t.Errorf("fleet makespan %v != direct %v", fres.Makespan, dres.Makespan)
	}
}
