package fleet

import (
	"testing"
	"time"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/stream"
)

// TestLeastSojournSettleReleasesLoad pins the router-load decay fix. Before
// it, leastSojournPolicy.load only ever accumulated: a window of requests
// routed to a device kept repelling new work forever, so after the primary
// shard drained, a device that was briefly the only live one looked
// permanently saturated next to a device that just joined — and every
// subsequent request herded onto the newcomer instead of balancing.
//
// The scenario: four requests routed while only dev0 is live (dev0 absorbs
// all four credits), all four complete and settle, then four more arrive
// with both identical devices live. With settle, dev0's load is back to
// zero and the identical devices split the new work 2/2. Without it (the
// pre-fix behaviour), dev0 still carries four sojourn credits and all four
// new requests pile onto dev1.
func TestLeastSojournSettleReleasesLoad(t *testing.T) {
	devices := []*Device{
		testDevice(t, "dev0", nil, nil),
		testDevice(t, "dev1", nil, nil),
	}
	m := model.MustByName(model.ResNet50)
	p := NewLeastSojournPolicy()
	p.Reset(devices)

	for seq := 0; seq < 4; seq++ {
		if dev := p.Route(m, seq, []int{0}, devices); dev != 0 {
			t.Fatalf("Route with live={0} returned %d", dev)
		}
	}
	for i := 0; i < 4; i++ {
		p.Settle(m, 0, devices)
	}

	counts := make([]int, 2)
	for seq := 4; seq < 8; seq++ {
		counts[p.Route(m, seq, []int{0, 1}, devices)]++
	}
	if counts[0] != 2 || counts[1] != 2 {
		t.Errorf("post-settle routing split %v, want [2 2]: completed-window load was not released", counts)
	}
}

// TestLeastSojournSettleFloorsAtZero over-settles a device (more completions
// reported than credits charged — the estimate-drift case after a
// degradation event changes the state-keyed estimate between Route and
// Settle) and requires load to floor at zero rather than going negative,
// which would magnetise every future request onto the over-settled device.
func TestLeastSojournSettleFloorsAtZero(t *testing.T) {
	devices := []*Device{
		testDevice(t, "dev0", nil, nil),
		testDevice(t, "dev1", nil, nil),
	}
	m := model.MustByName(model.ResNet50)
	p := NewLeastSojournPolicy().(*leastSojournPolicy)
	p.Reset(devices)

	p.Route(m, 0, []int{0, 1}, devices)
	for i := 0; i < 5; i++ {
		p.Settle(m, 0, devices)
		p.Settle(m, 1, devices)
	}
	if p.load[0] != 0 || p.load[1] != 0 {
		t.Fatalf("over-settled loads = %v, want both zero", p.load)
	}
	// Out-of-range device indices must be ignored, not panic.
	p.Settle(m, -1, devices)
	p.Settle(m, 2, devices)
}

// TestLeastSojournFleetRunSettles runs a real two-device fleet under the
// least-sojourn policy and asserts the policy's internal load drains back to
// zero once every request completes — the end-to-end wiring of the
// fleet merge step calling Settle once per completion.
func TestLeastSojournFleetRunSettles(t *testing.T) {
	devices := []*Device{
		testDevice(t, "dev0", nil, nil),
		testDevice(t, "dev1", nil, nil),
	}
	p := NewLeastSojournPolicy()
	fl, err := New(devices, Config{Policy: p})
	if err != nil {
		t.Fatal(err)
	}
	reqs := cycledRequests(t, []string{model.ResNet50, model.SqueezeNet}, 8, 500*time.Microsecond)
	res, err := fl.RunContext(t.Context(), reqs, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Completions); got != 8 {
		t.Fatalf("completions = %d, want 8", got)
	}
	ls := p.(*leastSojournPolicy)
	for dev, load := range ls.load {
		if load != 0 {
			t.Errorf("device %d load = %v after full drain, want 0", dev, load)
		}
	}
	var _ []*stream.Result = res.PerDevice // fleet result shape unchanged
}

// TestLeastSojournEstimatesByModelIdentity: the solo-estimate memo must
// key a model by identity, not by name. Keyed by name, a custom model that
// reuses a zoo name was routed and settled on the zoo model's estimate:
// on Kirin 990 a ResNet50 clone with ten times the FLOPs, asked after the
// zoo ResNet50, read the zoo's 10.757 ms instead of its own 57.350 ms.
func TestLeastSojournEstimatesByModelIdentity(t *testing.T) {
	devices := []*Device{testDevice(t, "dev0", nil, nil)}
	zoo := model.MustByName(model.ResNet50)
	heavy := zoo.Clone()
	for i := range heavy.Layers {
		heavy.Layers[i].FLOPs *= 10
	}
	fresh := NewLeastSojournPolicy().(*leastSojournPolicy)
	fresh.Reset(devices)
	want := fresh.estimate(0, devices[0], heavy)

	p := NewLeastSojournPolicy().(*leastSojournPolicy)
	p.Reset(devices)
	zooEst := p.estimate(0, devices[0], zoo)
	if zooEst >= want {
		t.Fatalf("zoo estimate %v not below the 10×-FLOPs clone's %v", zooEst, want)
	}
	if got := p.estimate(0, devices[0], heavy); got != want {
		t.Fatalf("clone estimate after the zoo model's = %v, a fresh policy reads %v", got, want)
	}
	p.Route(heavy, 0, []int{0}, devices)
	if p.load[0] != want {
		t.Fatalf("routing the clone charged %v, want its own estimate %v", p.load[0], want)
	}
	p.Settle(heavy, 0, devices)
	if p.load[0] != 0 {
		t.Fatalf("settling the clone left %v of load", p.load[0])
	}
}
