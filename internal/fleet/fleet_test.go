package fleet

import (
	"testing"
	"time"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stream"
)

// kirinAllOffline knocks every Kirin 990 processor offline at the given
// virtual instant — the degradation pattern that forces a mid-run halt.
func kirinAllOffline(at time.Duration) []soc.Event {
	return []soc.Event{
		{Kind: soc.EventProcessorOffline, Processor: "npu", At: at},
		{Kind: soc.EventProcessorOffline, Processor: "cpu-big", At: at},
		{Kind: soc.EventProcessorOffline, Processor: "gpu", At: at},
		{Kind: soc.EventProcessorOffline, Processor: "cpu-small", At: at},
	}
}

// testDevice builds a named Kirin 990 device with a small plan cache, fast
// retry budget and the given event timeline.
func testDevice(t testing.TB, name string, reg *obs.Registry, events []soc.Event) *Device {
	t.Helper()
	popts := core.DefaultOptions()
	popts.PlanCache = 8
	scfg := stream.Config{
		MaxWindow:    3,
		MaxBatch:     1,
		MaxRetries:   2,
		RetryBackoff: 100 * time.Microsecond,
		Events:       events,
	}
	dev, err := NewDevice(DeviceSpec{Name: name, SoC: soc.Kirin990(), Planner: popts, Stream: scfg}, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// cycledRequests builds n arrival-ordered requests cycling through names with
// a fixed inter-arrival gap.
func cycledRequests(t testing.TB, names []string, n int, gap time.Duration) []stream.Request {
	t.Helper()
	reqs := make([]stream.Request, n)
	for i := range reqs {
		reqs[i] = stream.Request{
			Model:   model.MustByName(names[i%len(names)]),
			Arrival: time.Duration(i) * gap,
		}
	}
	return reqs
}

// TestFleetFailover drives a 2-device fleet where device 0 loses every
// processor mid-run: its unfinished backlog must fail over to device 1 with
// Request.Handoff set, every request must still complete, and the handoff
// accounting must agree across Result, Status, the merged report and the
// metrics registry.
func TestFleetFailover(t *testing.T) {
	reg := obs.NewRegistry("h2pipe")
	dev0 := testDevice(t, "dev0", reg, kirinAllOffline(2*time.Millisecond))
	dev1 := testDevice(t, "dev1", reg, nil)
	fl, err := New([]*Device{dev0, dev1}, Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	names := []string{model.ResNet50, model.SqueezeNet, model.GoogLeNet, model.MobileNetV2}
	requests := cycledRequests(t, names, 16, 500*time.Microsecond)

	res, err := fl.RunContext(t.Context(), requests, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Down[0] {
		t.Fatal("device 0 lost every processor but is not marked down")
	}
	if res.Down[1] {
		t.Fatal("healthy device 1 marked down")
	}
	if res.Handoffs == 0 {
		t.Fatal("no handoffs recorded despite a mid-run device failure")
	}
	for i := range requests {
		if res.Completions[i] <= 0 {
			t.Errorf("request %d never completed (completion %v)", i, res.Completions[i])
		}
		if res.Sojourns[i] != res.Completions[i]-requests[i].Arrival {
			t.Errorf("request %d sojourn %v != completion-arrival %v",
				i, res.Sojourns[i], res.Completions[i]-requests[i].Arrival)
		}
	}

	st := fl.Status()
	if st.Completed != len(requests) {
		t.Errorf("status completed = %d, want %d", st.Completed, len(requests))
	}
	if st.Handoffs != res.Handoffs {
		t.Errorf("status handoffs = %d, result says %d", st.Handoffs, res.Handoffs)
	}
	if st.Devices[0].Live {
		t.Error("status still reports device 0 live")
	}
	if st.Devices[0].HandoffsOut != res.Handoffs {
		t.Errorf("device 0 handoffs out = %d, want %d", st.Devices[0].HandoffsOut, res.Handoffs)
	}
	if st.Devices[1].HandoffsIn != res.Handoffs {
		t.Errorf("device 1 handoffs in = %d, want %d", st.Devices[1].HandoffsIn, res.Handoffs)
	}
	if got := st.Devices[0].Completed + st.Devices[1].Completed; got != len(requests) {
		t.Errorf("per-device completions sum to %d, want %d", got, len(requests))
	}

	rep := res.Report
	if rep == nil {
		t.Fatal("nil fleet report")
	}
	if rep.Handoffs != res.Handoffs || rep.Completed != len(requests) || rep.Requests != len(requests) {
		t.Errorf("report (requests=%d completed=%d handoffs=%d) disagrees with result (%d, %d, %d)",
			rep.Requests, rep.Completed, rep.Handoffs, len(requests), len(requests), res.Handoffs)
	}
	if !rep.PerDevice[0].Down || rep.PerDevice[1].Down {
		t.Errorf("report down flags = %t,%t, want true,false", rep.PerDevice[0].Down, rep.PerDevice[1].Down)
	}
	if len(res.HandoffResults[1]) == 0 {
		t.Error("device 1 has no handoff batch results")
	}

	snap := reg.Snapshot()
	if got := snap.Counters["fleet_handoffs_total"]; got != uint64(res.Handoffs) {
		t.Errorf("fleet_handoffs_total = %d, want %d", got, res.Handoffs)
	}
	if got := snap.Counters[obs.SeriesName("stream_handoffs_total", "device", "dev1")]; got != uint64(res.Handoffs) {
		t.Errorf(`stream_handoffs_total{device="dev1"} = %d, want %d`, got, res.Handoffs)
	}
	routed := snap.Counters[obs.SeriesName("fleet_routed_total", "device", "dev0")] +
		snap.Counters[obs.SeriesName("fleet_routed_total", "device", "dev1")]
	if routed != uint64(len(requests)) {
		t.Errorf("fleet_routed_total across devices = %d, want %d", routed, len(requests))
	}
	if got := snap.Gauges["fleet_devices_down"]; got != 1 {
		t.Errorf("fleet_devices_down = %v, want 1", got)
	}
}

// TestFleetAllDevicesDown: when every device halts the run must fail loudly,
// not spin or silently drop requests.
func TestFleetAllDevicesDown(t *testing.T) {
	reg := obs.NewRegistry("h2pipe")
	dev0 := testDevice(t, "dev0", reg, kirinAllOffline(time.Millisecond))
	dev1 := testDevice(t, "dev1", reg, kirinAllOffline(time.Millisecond))
	fl, err := New([]*Device{dev0, dev1}, Config{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	requests := cycledRequests(t, []string{model.ResNet50, model.SqueezeNet}, 12, 200*time.Microsecond)
	if _, err := fl.RunContext(t.Context(), requests, pipeline.DefaultOptions()); err == nil {
		t.Fatal("fleet run with every device halting returned nil error")
	}
}

// TestFleetValidation covers constructor and run-time input checking.
func TestFleetValidation(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("New with no devices: nil error")
	}
	d0 := testDevice(t, "dup", nil, nil)
	d1 := testDevice(t, "dup", nil, nil)
	if _, err := New([]*Device{d0, d1}, Config{}); err == nil {
		t.Error("New with duplicate names: nil error")
	}
	u0 := testDevice(t, "", nil, nil)
	u1 := testDevice(t, "other", nil, nil)
	if _, err := New([]*Device{u0, u1}, Config{}); err == nil {
		t.Error("New with unnamed device in multi-device fleet: nil error")
	}
	if _, err := New([]*Device{u0}, Config{}); err != nil {
		t.Errorf("New with one unnamed device: %v", err)
	}

	fl, err := New([]*Device{testDevice(t, "dev0", nil, nil)}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	unsorted := []stream.Request{
		{Model: model.MustByName(model.ResNet50), Arrival: time.Millisecond},
		{Model: model.MustByName(model.SqueezeNet), Arrival: 0},
	}
	if _, err := fl.RunContext(t.Context(), unsorted, pipeline.DefaultOptions()); err == nil {
		t.Error("Run with unsorted arrivals: nil error")
	}
}

// TestPolicyByName pins the policy registry the CLI and facade resolve
// against.
func TestPolicyByName(t *testing.T) {
	for _, tc := range []struct{ in, want string }{
		{"", PolicyHash},
		{PolicyHash, PolicyHash},
		{PolicyLeastSojourn, PolicyLeastSojourn},
	} {
		p, err := PolicyByName(tc.in)
		if err != nil {
			t.Fatalf("PolicyByName(%q): %v", tc.in, err)
		}
		if p.Name() != tc.want {
			t.Errorf("PolicyByName(%q).Name() = %q, want %q", tc.in, p.Name(), tc.want)
		}
	}
	if _, err := PolicyByName("random"); err == nil {
		t.Error("PolicyByName(random): nil error")
	}
}

// TestPolicyRouteLive: every policy must return a member of the live set, for
// full and degraded fleets alike.
func TestPolicyRouteLive(t *testing.T) {
	devices := []*Device{
		testDevice(t, "dev0", nil, nil),
		testDevice(t, "dev1", nil, nil),
		testDevice(t, "dev2", nil, nil),
	}
	models := []*model.Model{
		model.MustByName(model.ResNet50),
		model.MustByName(model.SqueezeNet),
		model.MustByName(model.GoogLeNet),
	}
	liveSets := [][]int{{0, 1, 2}, {0, 2}, {1}, {2}}
	for _, name := range PolicyNames() {
		p, err := PolicyByName(name)
		if err != nil {
			t.Fatal(err)
		}
		p.Reset(devices)
		for _, live := range liveSets {
			for seq := 0; seq < 24; seq++ {
				dev := p.Route(models[seq%len(models)], seq, live, devices)
				if !contains(live, dev) {
					t.Fatalf("%s routed seq %d to %d outside live set %v", name, seq, dev, live)
				}
			}
		}
	}
}

// TestLeastSojournBalances: identical requests against identical devices must
// spread across the fleet, not pile onto one device.
func TestLeastSojournBalances(t *testing.T) {
	devices := []*Device{
		testDevice(t, "dev0", nil, nil),
		testDevice(t, "dev1", nil, nil),
	}
	m := model.MustByName(model.ResNet50)
	p := NewLeastSojournPolicy()
	p.Reset(devices)
	counts := make([]int, 2)
	for seq := 0; seq < 10; seq++ {
		counts[p.Route(m, seq, []int{0, 1}, devices)]++
	}
	if counts[0] != 5 || counts[1] != 5 {
		t.Errorf("least-sojourn split identical load %v, want [5 5]", counts)
	}
}

// TestLeastSojournSkipsIncapableDevice: a device left with only its NPU
// cannot run BERT, whose attention the NPU rejects, so its estimate is
// InfDuration. Wherever that device sits in the live list, least-sojourn
// must route BERT to a device that can run it, and no load may go negative
// (load + InfDuration once wrapped negative and won every argmin).
func TestLeastSojournSkipsIncapableDevice(t *testing.T) {
	squeeze, bert := model.MustByName(model.SqueezeNet), model.MustByName(model.BERT)
	for npuOnly := 0; npuOnly < 3; npuOnly++ {
		devices := []*Device{
			testDevice(t, "dev0", nil, nil),
			testDevice(t, "dev1", nil, nil),
			testDevice(t, "dev2", nil, nil),
		}
		for _, proc := range []string{"cpu-big", "cpu-small", "gpu"} {
			if _, err := devices[npuOnly].SoC().Apply(soc.Event{Kind: soc.EventProcessorOffline, Processor: proc}); err != nil {
				t.Fatal(err)
			}
		}
		p := NewLeastSojournPolicy()
		p.Reset(devices)
		live := []int{0, 1, 2}
		for seq := 0; seq < 3; seq++ {
			p.Route(squeeze, seq, live, devices)
		}
		for seq := 3; seq < 5; seq++ {
			if dev := p.Route(bert, seq, live, devices); dev == npuOnly {
				t.Errorf("NPU-only dev%d: BERT (seq %d) routed to it", npuOnly, seq)
			}
			for dev, load := range p.(*leastSojournPolicy).load {
				if load < 0 {
					t.Errorf("NPU-only dev%d: after seq %d, dev%d load %v is negative", npuOnly, seq, dev, load)
				}
			}
		}
	}
}

// TestLeastSojournMemoKeysOnState: the estimate memo keys on the SoC state,
// so a device flipping a throttle 1.5 ↔ 1 adds no estimate per flip. Routed
// directly with a flip before every request, the memo holds one estimate
// per (device, state, model): two states, one model. Over a fleet run
// whose devices flip twenty times and end in their starting state, Route
// and Settle read one state per device, so the memo holds one estimate per
// (device, model).
func TestLeastSojournMemoKeysOnState(t *testing.T) {
	flip := func(i int, at time.Duration) soc.Event {
		factor := 1.5
		if i%2 == 1 {
			factor = 1
		}
		return soc.Event{Kind: soc.EventThermalThrottle, Processor: "cpu-big", Factor: factor, At: at}
	}
	devices := []*Device{testDevice(t, "dev0", nil, nil), testDevice(t, "dev1", nil, nil)}
	p := NewLeastSojournPolicy().(*leastSojournPolicy)
	p.Reset(devices)
	m := model.MustByName(model.ResNet50)
	for i := 0; i < 40; i++ {
		if _, err := devices[0].SoC().Apply(flip(i, 0)); err != nil {
			t.Fatal(err)
		}
		p.Settle(m, p.Route(m, i, []int{0, 1}, devices), devices)
	}
	if got, want := len(p.est), 3; got != want {
		t.Errorf("after 40 flips the memo holds %d estimates, want %d (dev0 in two states, dev1 in one)", got, want)
	}

	var events []soc.Event
	for i := 0; i < 20; i++ {
		events = append(events, flip(i, time.Duration(i)*100*time.Microsecond))
	}
	names := []string{model.ResNet50, model.SqueezeNet, model.GoogLeNet}
	f, err := New([]*Device{testDevice(t, "dev0", nil, events), testDevice(t, "dev1", nil, events)},
		Config{Policy: NewLeastSojournPolicy()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.RunContext(t.Context(), cycledRequests(t, names, 30, 2*time.Millisecond), pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for dev, r := range res.PerDevice {
		if r.EventsApplied != len(events) {
			t.Fatalf("dev%d applied %d of %d flips", dev, r.EventsApplied, len(events))
		}
	}
	if got, want := len(f.policy.(*leastSojournPolicy).est), 2*len(names); got != want {
		t.Errorf("after a fleet run the memo holds %d estimates, want %d (one per device and model)", got, want)
	}
}

// TestFleetPoissonArrivals pins the per-device seeding fix: substreams must
// be reproducible, arrival-sorted, complete, and decorrelated across devices.
func TestFleetPoissonArrivals(t *testing.T) {
	var models []*model.Model
	for i := 0; i < 24; i++ {
		models = append(models, model.MustByName(model.ResNet50))
	}
	a := PoissonArrivals(models, time.Millisecond, 7, 3)
	b := PoissonArrivals(models, time.Millisecond, 7, 3)
	if len(a) != len(models) {
		t.Fatalf("got %d requests, want %d", len(a), len(models))
	}
	for i := range a {
		if a[i].Arrival != b[i].Arrival || a[i].Model != b[i].Model {
			t.Fatalf("arrivals not reproducible at %d: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i].Arrival < a[i-1].Arrival {
			t.Fatalf("arrivals not sorted at %d: %v after %v", i, a[i].Arrival, a[i-1].Arrival)
		}
	}
	// devices ≤ 1 must stay byte-for-byte the historical single-stream shape.
	single := PoissonArrivals(models, time.Millisecond, 7, 1)
	direct := stream.PoissonArrivals(models, time.Millisecond, 7)
	for i := range single {
		if single[i] != direct[i] {
			t.Fatalf("single-device arrivals diverge from stream.PoissonArrivals at %d", i)
		}
	}
}

// TestDeviceSeedDecorrelates: per-device seeds must be distinct from the base
// seed and from each other, and the gap sequences they drive must not be
// shifted or scaled copies of one another.
func TestDeviceSeedDecorrelates(t *testing.T) {
	seen := map[uint64]bool{7: true}
	for d := 0; d < 16; d++ {
		s := stream.DeviceSeed(7, d)
		if seen[s] {
			t.Fatalf("DeviceSeed(7, %d) = %d collides", d, s)
		}
		seen[s] = true
		if s != stream.DeviceSeed(7, d) {
			t.Fatalf("DeviceSeed(7, %d) not deterministic", d)
		}
	}
	var models []*model.Model
	for i := 0; i < 16; i++ {
		models = append(models, model.MustByName(model.SqueezeNet))
	}
	g0 := stream.PoissonArrivals(models, time.Millisecond, stream.DeviceSeed(7, 0))
	g1 := stream.PoissonArrivals(models, time.Millisecond, stream.DeviceSeed(7, 1))
	same := 0
	for i := 1; i < len(models); i++ {
		if g0[i].Arrival-g0[i-1].Arrival == g1[i].Arrival-g1[i-1].Arrival {
			same++
		}
	}
	if same > len(models)/4 {
		t.Errorf("device 0 and 1 substreams share %d/%d inter-arrival gaps — still correlated", same, len(models)-1)
	}
}

// TestDeviceRunInheritsDefaults: a zero-valued config must inherit the
// device's stream defaults, including its event timeline; caller events must
// override.
func TestDeviceRunInheritsDefaults(t *testing.T) {
	events := []soc.Event{{Kind: soc.EventThermalThrottle, Processor: "cpu-big", At: time.Millisecond, Factor: 2}}
	dev := testDevice(t, "dev0", nil, events)
	reqs := cycledRequests(t, []string{model.SqueezeNet, model.GoogLeNet}, 4, 300*time.Microsecond)

	res, err := dev.Run(t.Context(), reqs, stream.Config{}, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res.EventsApplied != 1 {
		t.Errorf("zero config applied %d events, want the device's 1", res.EventsApplied)
	}

	// A fresh device with the same timeline, run with caller-supplied empty
	// events: the device timeline must NOT re-apply.
	dev2 := testDevice(t, "dev0", nil, events)
	cfg := dev2.StreamConfig()
	cfg.Events = []soc.Event{}
	res2, err := dev2.Run(t.Context(), reqs, cfg, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if res2.EventsApplied != 0 {
		t.Errorf("explicit empty events still applied %d device events", res2.EventsApplied)
	}
	if !dev2.Live() {
		t.Error("device with throttle-only timeline reported dead")
	}
}

// TestDeviceRunKeepsCallerFields: a config that leaves MaxWindow zero takes
// the device's windowing, yet every field the caller did set survives — a
// previous version swapped such a config for the device's whole config,
// keeping only Events.
func TestDeviceRunKeepsCallerFields(t *testing.T) {
	reqs := []stream.Request{
		{Model: model.MustByName(model.ResNet50)},
		{Model: model.MustByName(model.SqueezeNet), Arrival: time.Millisecond},
	}
	dev := testDevice(t, "dev0", nil, nil)
	cfg := stream.Config{RequestTracing: true, Objective: core.ObjectiveFrontier}
	res, err := dev.Run(t.Context(), reqs, cfg, pipeline.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Timelines) != len(reqs) {
		t.Errorf("RequestTracing dropped: %d timelines, want %d", len(res.Timelines), len(reqs))
	}
	if res.WindowStats[0].FrontierSize == 0 {
		t.Error("ObjectiveFrontier dropped: window 0 planned no frontier")
	}
	if res.WindowStats[0].Requests > dev.StreamConfig().MaxWindow {
		t.Errorf("window of %d requests exceeds the device's MaxWindow %d",
			res.WindowStats[0].Requests, dev.StreamConfig().MaxWindow)
	}

	// A caller-set HaltInfeasible turns the dead device's exhausted retry
	// budget into a graceful halt rather than a run error.
	dead := testDevice(t, "dev1", nil, kirinAllOffline(0))
	halted, err := dead.Run(t.Context(), reqs, stream.Config{HaltInfeasible: true}, pipeline.DefaultOptions())
	if err != nil {
		t.Fatalf("HaltInfeasible dropped: %v", err)
	}
	if !halted.Halted || len(halted.Unfinished) != len(reqs) {
		t.Errorf("halted=%v unfinished=%d, want a halt with %d unfinished",
			halted.Halted, len(halted.Unfinished), len(reqs))
	}
}
