package fleet

import (
	"fmt"
	"math/bits"
	"reflect"
	"strings"
	"testing"
	"time"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stream"
)

// fuzzKeys derives keyCount pseudo-random ring keys from a base seed with a
// splitmix64 walk — deterministic per seed, so failures replay exactly.
func fuzzKeys(seed uint64, keyCount int) []uint64 {
	keys := make([]uint64, keyCount)
	z := seed
	for i := range keys {
		z += 0x9E3779B97F4A7C15
		x := z
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		keys[i] = x ^ (x >> 31)
	}
	return keys
}

// FuzzRouterShard pins the router's two sharding invariants on the
// consistent-hash ring under arbitrary request digests and device up/down
// masks:
//
//  1. Exactly-one-live-device: every key routes to exactly one device, and
//     that device is live, for any non-empty live set.
//  2. Minimal disruption: taking one device down moves only the keys that
//     device owned — every other key keeps its device.
func FuzzRouterShard(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint16(32))
	f.Add(uint64(42), uint8(0b0101_0101), uint16(64))
	f.Add(uint64(0xDEADBEEF), uint8(0b1111_1110), uint16(16))
	f.Add(uint64(7), uint8(0b1000_0001), uint16(128))
	f.Fuzz(func(t *testing.T, seed uint64, downMask uint8, keyCount uint16) {
		const n = 8
		names := make([]string, n)
		for i := range names {
			names[i] = fmt.Sprintf("dev%d", i)
		}
		ring := NewRing(names)
		keys := fuzzKeys(seed, int(keyCount%512)+1)

		allLive := func(int) bool { return true }
		owner := make([]int, len(keys))
		for i, k := range keys {
			dev, ok := ring.Lookup(k, allLive)
			if !ok || dev < 0 || dev >= n {
				t.Fatalf("key %#x: Lookup = (%d, %t) with every device live", k, dev, ok)
			}
			// Exactly one device: a second lookup must agree.
			again, _ := ring.Lookup(k, allLive)
			if again != dev {
				t.Fatalf("key %#x: Lookup not deterministic (%d then %d)", k, dev, again)
			}
			owner[i] = dev
		}

		// Take one device down: only its keys may move.
		departed := int(seed % n)
		withoutDeparted := func(dev int) bool { return dev != departed }
		for i, k := range keys {
			dev, ok := ring.Lookup(k, withoutDeparted)
			if !ok || dev == departed {
				t.Fatalf("key %#x routed to departed device %d (ok=%t)", k, departed, ok)
			}
			if owner[i] != departed && dev != owner[i] {
				t.Fatalf("key %#x moved %d→%d though only device %d departed",
					k, owner[i], dev, departed)
			}
		}

		// Arbitrary up/down mask (bit d set = device d down): every key must
		// still land on exactly one live device while any device survives.
		if bits.OnesCount8(downMask) == n {
			downMask &^= 1 // keep at least dev0 live
		}
		masked := func(dev int) bool { return downMask&(1<<uint(dev)) == 0 }
		for _, k := range keys {
			dev, ok := ring.Lookup(k, masked)
			if !ok {
				t.Fatalf("key %#x: no device found with mask %08b", k, downMask)
			}
			if !masked(dev) {
				t.Fatalf("key %#x routed to down device %d (mask %08b)", k, dev, downMask)
			}
		}

		// Empty live set is the one unroutable case and must say so.
		if _, ok := ring.Lookup(keys[0], func(int) bool { return false }); ok {
			t.Fatal("Lookup claimed success with no live devices")
		}
	})
}

// FuzzFleetFailover runs whole fleets under fuzzed failures: 2–4 Kirin 990
// devices, any routing policy, any subset of devices losing every processor
// at a fuzzed instant, 1–40 requests at a fuzzed gap, and an optional
// deadline. Every run must either fail with the all-down error — possible
// only when every device was set to fail — or:
//
//  1. match a second fresh fleet's Result once planner wall time is zeroed;
//  2. complete every request exactly once, on the shared virtual clock;
//  3. publish exactly one timeline per request to the trace store;
//  4. decompose every request's sojourn exactly;
//  5. count the same deadline misses on the device results, in the SLO
//     monitor and on the stitched timelines.
func FuzzFleetFailover(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0b01), uint16(2000), uint8(15), uint16(500), uint32(40000))
	f.Add(uint8(2), uint8(1), uint8(0b0011), uint16(2000), uint8(39), uint16(300), uint32(20000))
	f.Add(uint8(1), uint8(2), uint8(0b111), uint16(1000), uint8(11), uint16(200), uint32(0))
	f.Fuzz(func(t *testing.T, devCount, policyPick, downMask uint8, downAtUS uint16, reqCount uint8, gapUS uint16, deadlineUS uint32) {
		nd := 2 + int(devCount%3)
		policies := PolicyNames()
		policyName := policies[int(policyPick)%len(policies)]
		n := 1 + int(reqCount%40)
		gap := time.Duration(gapUS%2000) * time.Microsecond
		deadline := time.Duration(deadlineUS%100000) * time.Microsecond
		allFail := true
		for d := 0; d < nd; d++ {
			allFail = allFail && downMask&(1<<d) != 0
		}

		type outcome struct {
			res   *Result
			err   error
			store *stream.TraceStore
			mon   *obs.SLOMonitor
		}
		run := func() outcome {
			store := stream.NewTraceStore(0, 0)
			mon := obs.NewSLOMonitor(0, map[string]float64{"latency-critical": 0.5})
			devices := make([]*Device, nd)
			for d := range devices {
				var events []soc.Event
				if downMask&(1<<d) != 0 {
					events = kirinAllOffline(time.Duration(downAtUS) * time.Microsecond)
				}
				devices[d] = tracedDevice(t, fmt.Sprintf("dev%d", d), nil, events, store, mon)
			}
			policy, err := PolicyByName(policyName)
			if err != nil {
				t.Fatal(err)
			}
			fl, err := New(devices, Config{Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			names := []string{model.SqueezeNet, model.MobileNetV2, model.ResNet50, model.GoogLeNet}
			requests := cycledRequests(t, names, n, gap)
			for i := range requests {
				requests[i].Deadline = deadline
			}
			res, err := fl.RunContext(t.Context(), requests, pipeline.DefaultOptions())
			if res != nil {
				normalizeFleet(res)
			}
			return outcome{res: res, err: err, store: store, mon: mon}
		}

		a, b := run(), run()
		if (a.err == nil) != (b.err == nil) {
			t.Fatalf("fresh fleets disagree on failure: %v vs %v", a.err, b.err)
		}
		if a.err != nil {
			if !allFail || !strings.Contains(a.err.Error(), "all devices down") {
				t.Fatalf("run failed (every device set to fail: %t): %v", allFail, a.err)
			}
			return
		}
		if !reflect.DeepEqual(a.res, b.res) {
			t.Fatalf("fresh fleets diverge: completions %v vs %v", a.res.Completions, b.res.Completions)
		}

		res := a.res
		completed := 0
		deviceMisses := 0
		for dev, r := range res.PerDevice {
			runs := res.HandoffResults[dev]
			if r != nil {
				runs = append([]*stream.Result{r}, runs...)
			}
			for _, r := range runs {
				completed += len(r.Completions) - len(r.Unfinished)
				deviceMisses += r.DeadlineMisses
			}
		}
		if completed != n {
			t.Fatalf("device runs completed %d requests, want each of %d once", completed, n)
		}
		for i := range res.Completions {
			if res.Completions[i] <= 0 || res.Sojourns[i] <= 0 {
				t.Fatalf("request %d: completion %v, sojourn %v", i, res.Completions[i], res.Sojourns[i])
			}
		}
		if got := a.store.Total(); got != n {
			t.Fatalf("trace store took %d timelines for %d requests", got, n)
		}
		timelineMisses := 0
		for i, tl := range res.Timelines {
			if !tl.Completed || tl.Sojourn != res.Sojourns[i] || tl.Breakdown.VirtualSum() != tl.Sojourn {
				t.Fatalf("request %d: timeline completed=%t sojourn %v (fleet %v), decomposition sums to %v",
					i, tl.Completed, tl.Sojourn, res.Sojourns[i], tl.Breakdown.VirtualSum())
			}
			if tl.Missed {
				timelineMisses++
			}
		}
		var monitorMisses uint64
		for _, c := range a.mon.Report().Classes {
			monitorMisses += c.Missed
		}
		if deviceMisses != timelineMisses || monitorMisses != uint64(timelineMisses) {
			t.Fatalf("deadline misses disagree: devices %d, SLO monitor %d, timelines %d",
				deviceMisses, monitorMisses, timelineMisses)
		}
	})
}
