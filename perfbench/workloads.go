package main

import (
	"math/rand"
	"sort"
	"time"

	"hetero2pipe/internal/fleet"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stream"
	apps "hetero2pipe/internal/workload"
)

// Workload sizes. Each run serves enough requests and windows that at least
// tailBeyond samples lie beyond every reported p99.
const (
	mixedRequests = 8000
	appClips      = 600
	appFrames     = 8     // video-analytics frames per clip after its BERT anchor
	fleetRequests = 16000 // Poisson arrivals, before the closing burst
)

// workload is one open-loop traffic mix. The seed and the offered rate fix
// every input; the program under test receives only the generated requests
// and degradation timelines.
type workload struct {
	name string
	why  string
	// limit is the fixed sojourn limit behind slo_miss_frac and the
	// capacity ladder.
	limit time.Duration
	// nominal is the offered rate (requests per simulated second) of the
	// timed runs; ladder holds the four rates probed for capacity_rps.
	nominal float64
	ladder  [4]float64
	gen     func(seed uint64, rate float64) scenario
	// variants is how many inputs one benchmark run serves, each generated
	// from its own sub-seed of --seed. The simulated metrics are medians
	// over the variants; timed runs cycle through them, at least once each,
	// until the time budget is spent.
	variants int
}

func (w workload) variantSeed(seed uint64, v int) uint64 {
	return seed*uint64(w.variants) + uint64(v)
}

// scenario is one generated input: the arrival-ordered requests and the
// devices that serve them. A fleet scenario runs its devices under the
// fleet front-end; otherwise it has exactly one device, run through the
// library facade.
type scenario struct {
	requests []stream.Request
	devices  []device
	fleet    bool
}

// device is one SoC preset with its own degradation timeline.
type device struct {
	preset string
	events []soc.Event
}

// Each limit sits between the workload's p99 at light load and its p99 at
// the nominal rate, so slo_miss_frac never reads 0 at the nominal rate
// while the lower ladder rates clear the limit. Ladder rates keep their p99
// well clear of the limit on both sides, so capacity_rps does not flip
// between rates from seed to seed.
var workloads = []workload{
	{
		name: "mixed-poisson",
		why: "Poisson arrivals from the 10-model zoo on one Kirin 990: multi-model windows rarely repeat, so host time goes to the " +
			"planner's candidate sweep and executor evaluations. Sojourn limit 1 s.",
		limit:    time.Second,
		nominal:  7,
		ladder:   [4]float64{2, 3, 6, 9},
		gen:      mixedPoisson,
		variants: 8,
	},
	{
		name: "app-recurring",
		why: "Periodic scene-understanding frames beside the video-analytics stream on one Kirin 990: windows recur, so plan-cache " +
			"hits, batching and the window loop dominate. Sojourn limit 1.15 s.",
		limit:    1150 * time.Millisecond,
		nominal:  13,
		ladder:   [4]float64{8, 10, 12, 14},
		gen:      appRecurring,
		variants: 8,
	},
	{
		name: "fleet-churn",
		why: "Three devices, hash routing, Poisson zoo arrivals and seeded throttle, bus and offline storms; one device dies " +
			"holding work and fails over. Stresses fleet, invalidation, replanning. Limit 1.2 s.",
		limit:   1200 * time.Millisecond,
		nominal: 12,
		ladder:  [4]float64{2, 3, 6, 9},
		gen:     fleetChurn,
		// Storm and queueing tails vary most between fleet inputs.
		variants: 16,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// gapFor is the mean inter-arrival gap of an offered rate.
func gapFor(rate float64) time.Duration {
	return time.Duration(float64(time.Second) / rate)
}

// zooDraws draws n models uniformly from the ten-model zoo in shuffled
// blocks: each block of ten holds every model once, so the offered work is
// the same for every seed and only its order varies.
func zooDraws(rng *rand.Rand, n int) []*model.Model {
	names := model.Names()
	out := make([]*model.Model, 0, n)
	for len(out) < n {
		for _, j := range rng.Perm(len(names)) {
			if len(out) == n {
				break
			}
			out = append(out, model.MustByName(names[j]))
		}
	}
	return out
}

func mixedPoisson(seed uint64, rate float64) scenario {
	rng := rand.New(rand.NewSource(int64(seed)))
	models := zooDraws(rng, mixedRequests)
	// DeviceSeed decorrelates nearby seeds, which PoissonArrivals' LCG
	// would otherwise map to near-identical gap sequences.
	reqs := stream.PoissonArrivals(models, gapFor(rate), stream.DeviceSeed(seed, 0))
	return scenario{requests: reqs, devices: []device{{preset: "Kirin990"}}}
}

// appRecurring lays out clips on a fixed period: each clip opens with one
// camera frame of the scene-understanding application (all five requests
// at the frame instant) and spreads the video-analytics clip (a BERT
// anchor, then alternating classifier frames) evenly across the period.
// The seed only jitters each arrival by up to 2% of a video frame gap, so
// window composition cycles.
func appRecurring(seed uint64, rate float64) scenario {
	rng := rand.New(rand.NewSource(int64(seed)))
	scene := apps.SceneUnderstanding()
	video := apps.VideoAnalytics(appFrames)
	period := time.Duration(float64(len(scene)+len(video)) / rate * float64(time.Second))
	vgap := period / time.Duration(len(video))
	jitter := func() time.Duration { return time.Duration(rng.Int63n(int64(vgap / 50))) }
	reqs := make([]stream.Request, 0, appClips*(len(scene)+len(video)))
	for c := 0; c < appClips; c++ {
		base := time.Duration(c) * period
		frame := base + jitter()
		for _, name := range scene {
			reqs = append(reqs, stream.Request{Model: model.MustByName(name), Arrival: frame})
		}
		for i, name := range video {
			at := base + time.Duration(i)*vgap + vgap/2 + jitter()
			reqs = append(reqs, stream.Request{Model: model.MustByName(name), Arrival: at})
		}
	}
	sort.SliceStable(reqs, func(a, b int) bool { return reqs[a].Arrival < reqs[b].Arrival })
	return scenario{requests: reqs, devices: []device{{preset: "Kirin990"}}}
}

// fleetPresets are the fleet-churn devices; fleetVictim loses every
// processor just after a closing burst of fleetBurst requests, so it dies
// holding queued work and fails it over. Failover re-admits a dead device's
// backlog only once the survivors' primary runs have finished, so an
// earlier death would park a share of the requests behind the whole run,
// and the p99 and the capacity ladder would measure the death instant
// instead of the fleet.
var fleetPresets = []string{"Kirin990", "Snapdragon778G", "Snapdragon870"}

const (
	fleetVictim = 0
	fleetBurst  = 24
)

func fleetChurn(seed uint64, rate float64) scenario {
	rng := rand.New(rand.NewSource(int64(seed)))
	models := zooDraws(rng, fleetRequests)
	reqs := fleet.PoissonArrivals(models, gapFor(rate), seed, len(fleetPresets))
	burst := reqs[len(reqs)-1].Arrival + time.Millisecond
	for _, m := range zooDraws(rng, fleetBurst) {
		reqs = append(reqs, stream.Request{Model: m, Arrival: burst})
	}
	span := time.Duration(float64(fleetRequests) / rate * float64(time.Second))
	devices := make([]device, len(fleetPresets))
	for d, preset := range fleetPresets {
		drng := rand.New(rand.NewSource(int64(stream.DeviceSeed(seed, d))))
		events := storm(drng, span)
		if d == fleetVictim {
			events = die(events, burst+time.Millisecond)
		}
		devices[d] = device{preset: preset, events: events}
	}
	return scenario{requests: reqs, devices: devices, fleet: true}
}

// Storm shape: per device, this many throttle cascades, bus squeezes and
// GPU/NPU offline flaps. Many short episodes on a jittered regular grid
// keep a storm's total impact, and with it the simulated metrics, steady
// from seed to seed.
const (
	stormCascades = 24
	stormSqueezes = 24
	stormFlaps    = 36
)

// storm builds one device's seeded degradation timeline over an arrival
// span. A throttle cascade heats the big CPU, then the GPU, then the NPU,
// and cools all three together; a bus squeeze derates the shared bus for a
// while; a flap takes the GPU or the NPU offline and brings it back.
func storm(rng *rand.Rand, span time.Duration) []soc.Event {
	step := span / 1600
	// slot places episode i of n in the middle half of its grid cell.
	slot := func(i, n int) time.Duration {
		return time.Duration((float64(i) + 0.25 + 0.5*rng.Float64()) / float64(n) * float64(span))
	}
	var evs []soc.Event
	ev := func(kind soc.EventKind, proc string, at time.Duration, factor float64) {
		evs = append(evs, soc.Event{At: at, Kind: kind, Processor: proc, Factor: factor})
	}
	for c := 0; c < stormCascades; c++ {
		t := slot(c, stormCascades)
		ev(soc.EventThermalThrottle, "cpu-big", t, 1.5)
		ev(soc.EventThermalThrottle, "gpu", t+step, 1.3)
		ev(soc.EventThermalThrottle, "npu", t+2*step, 1.2)
		for _, p := range []string{"cpu-big", "gpu", "npu"} {
			ev(soc.EventThermalThrottle, p, t+4*step, 1)
		}
	}
	for c := 0; c < stormSqueezes; c++ {
		t := slot(c, stormSqueezes)
		ev(soc.EventBandwidthSqueeze, "", t, 0.6)
		ev(soc.EventBandwidthSqueeze, "", t+3*step, 1)
	}
	for c := 0; c < stormFlaps; c++ {
		t := slot(c, stormFlaps)
		p := []string{"gpu", "npu"}[c%2]
		ev(soc.EventProcessorOffline, p, t, 0)
		ev(soc.EventProcessorOnline, p, t+2*step, 0)
	}
	return soc.SortEvents(evs)
}

// die ends a timeline at t: every processor goes offline and nothing
// later brings one back.
func die(evs []soc.Event, t time.Duration) []soc.Event {
	var out []soc.Event
	for _, e := range evs {
		if e.At < t {
			out = append(out, e)
		}
	}
	for _, p := range []string{"npu", "gpu", "cpu-big", "cpu-small"} {
		out = append(out, soc.Event{At: t, Kind: soc.EventProcessorOffline, Processor: p})
	}
	return out
}
