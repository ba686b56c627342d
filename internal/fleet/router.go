package fleet

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"time"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/soc"
)

// Policy names accepted by PolicyByName, the facade's ParsePolicy and the
// `h2pipe -policy` flag: the one spelling of each name.
const (
	PolicyHash         = "hash"
	PolicyLeastSojourn = "least-sojourn"
)

// PolicyNames lists every name PolicyByName accepts, the default first, in
// the order of the facade's Policy values.
func PolicyNames() []string { return []string{PolicyHash, PolicyLeastSojourn} }

// Policy picks a device for each admitted request. Implementations may keep
// routing state (ring positions, load estimates); Reset re-arms that state
// at the start of every fleet run so runs are independent and reproducible.
//
// Route receives the request's model and fleet-wide sequence number plus the
// currently live device indices (sorted ascending, never empty) and must
// return one of them. Routing a request to exactly one live device is the
// invariant FuzzRouterShard pins.
//
// Settle reports one request's completion on a device, so load-tracking
// policies release the sojourn credit Route charged — without it a
// least-loaded router's estimates only ever grow, and every completed
// window keeps repelling new work from the device that just drained it.
// Stateless policies ignore Settle. The fleet calls it once per completed
// request, from the merge step (single goroutine), before any failover
// round re-routes.
type Policy interface {
	Name() string
	Reset(devices []*Device)
	Route(m *model.Model, seq int, live []int, devices []*Device) int
	Settle(m *model.Model, dev int, devices []*Device)
}

// PolicyByName returns a fresh policy instance for a CLI/facade name.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case PolicyHash, "":
		return NewHashPolicy(), nil
	case PolicyLeastSojourn:
		return NewLeastSojournPolicy(), nil
	}
	return nil, fmt.Errorf("fleet: unknown policy %q (want %s)", name, strings.Join(PolicyNames(), " or "))
}

// ringReplicas is the virtual-node count per device on the consistent-hash
// ring: enough points that key ownership splits near-uniformly across a
// handful of devices, small enough that ring construction stays trivial.
const ringReplicas = 64

// Ring is a consistent-hash ring over device indices with virtual nodes.
// Lookups walk clockwise from the key's position and skip devices the
// caller reports dead, which gives the classic minimal-disruption property:
// removing a device reassigns only the keys it owned, every other key keeps
// its device (pinned by FuzzRouterShard).
type Ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	device int
}

// NewRing builds a ring over n devices named by names (names seed the
// virtual-node positions, so a device keeps its arc across fleets with the
// same naming scheme).
func NewRing(names []string) *Ring {
	r := &Ring{points: make([]ringPoint, 0, len(names)*ringReplicas)}
	for dev, name := range names {
		for rep := 0; rep < ringReplicas; rep++ {
			r.points = append(r.points, ringPoint{
				hash:   hash64(fmt.Sprintf("%s#%d", name, rep)),
				device: dev,
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on device index so equal hash positions still order
		// deterministically.
		return r.points[i].device < r.points[j].device
	})
	return r
}

// Lookup returns the live device owning key: the first point at or after the
// key's ring position (wrapping) whose device passes the live predicate.
// ok is false only when no device is live.
func (r *Ring) Lookup(key uint64, live func(device int) bool) (device int, ok bool) {
	n := len(r.points)
	if n == 0 {
		return 0, false
	}
	start := sort.Search(n, func(i int) bool { return r.points[i].hash >= key })
	for i := 0; i < n; i++ {
		p := r.points[(start+i)%n]
		if live(p.device) {
			return p.device, true
		}
	}
	return 0, false
}

// hash64 is FNV-1a over a string.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	return h.Sum64()
}

// requestKey mixes a request's model identity with its fleet sequence number
// into a ring key. The splitmix64-style finalizer decorrelates consecutive
// sequence numbers so a cyclic arrival pattern scatters across the ring
// instead of marching around it.
func requestKey(m *model.Model, seq int) uint64 {
	z := hash64(m.Name) + uint64(seq+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// hashPolicy shards by consistent hashing over (model, sequence) keys.
type hashPolicy struct {
	ring *Ring
}

// NewHashPolicy returns the consistent-hashing policy: stateless per
// request, minimal key movement when devices leave the live set.
func NewHashPolicy() Policy { return &hashPolicy{} }

func (p *hashPolicy) Name() string { return PolicyHash }

func (p *hashPolicy) Reset(devices []*Device) {
	names := make([]string, len(devices))
	for i, d := range devices {
		names[i] = deviceRingName(d, i)
	}
	p.ring = NewRing(names)
}

func (p *hashPolicy) Route(m *model.Model, seq int, live []int, devices []*Device) int {
	if dev, ok := p.ring.Lookup(requestKey(m, seq), liveSet(live)); ok {
		return dev
	}
	return live[0]
}

// Settle is a no-op: hashing keeps no load state.
func (p *hashPolicy) Settle(m *model.Model, dev int, devices []*Device) {}

// leastSojournPolicy routes each request to the device with the smallest
// accumulated latency estimate, where one request's estimate is its solo
// batch-1 latency on the device's best currently-available processor — a
// cheap stand-in for expected sojourn that needs no planning.
type leastSojournPolicy struct {
	load []time.Duration
	est  map[sojournKey]time.Duration
}

// sojournKey identifies one memoized solo estimate: a model on a device at
// one degradation epoch. The model is keyed by identity, not by name, so a
// custom model that reuses a zoo name gets its own estimate; models are
// not mutated after first use.
type sojournKey struct {
	dev   int
	epoch uint64
	m     *model.Model
}

// NewLeastSojournPolicy returns the load-balancing policy.
func NewLeastSojournPolicy() Policy { return &leastSojournPolicy{} }

func (p *leastSojournPolicy) Name() string { return PolicyLeastSojourn }

func (p *leastSojournPolicy) Reset(devices []*Device) {
	p.load = make([]time.Duration, len(devices))
	p.est = make(map[sojournKey]time.Duration)
}

// Route skips devices that cannot run m (estimate InfDuration, which would
// wrap a load negative); when no live device can, it falls back to live[0]
// as hash routing does and charges nothing.
func (p *leastSojournPolicy) Route(m *model.Model, seq int, live []int, devices []*Device) int {
	best, found := live[0], false
	var bestTotal, bestEst time.Duration
	for _, dev := range live {
		est := p.estimate(dev, devices[dev], m)
		if est == soc.InfDuration {
			continue
		}
		if total := p.load[dev] + est; !found || total < bestTotal {
			best, bestTotal, bestEst, found = dev, total, est, true
		}
	}
	p.load[best] += bestEst
	return best
}

// Settle releases the sojourn credit Route charged for a now-completed
// request, floored at zero. Without it load only accumulates, so after the
// primary shards drain, every failover (and any later) Route decision still
// sees the devices' lifetime totals and herds all new work onto whichever
// device was assigned least — typically a device that just came online —
// instead of balancing across the drained fleet. The floor also absorbs
// estimate drift: a degradation event between Route and Settle changes the
// epoch-keyed estimate, and under-crediting must not drive load negative.
func (p *leastSojournPolicy) Settle(m *model.Model, dev int, devices []*Device) {
	if dev < 0 || dev >= len(p.load) {
		return
	}
	if est := p.estimate(dev, devices[dev], m); est < p.load[dev] {
		p.load[dev] -= est
	} else {
		p.load[dev] = 0
	}
}

func (p *leastSojournPolicy) estimate(dev int, d *Device, m *model.Model) time.Duration {
	key := sojournKey{dev, d.SoC().Epoch(), m}
	if est, ok := p.est[key]; ok {
		return est
	}
	best := soc.InfDuration
	s := d.SoC()
	for i := range s.Processors {
		proc := &s.Processors[i]
		if !proc.Available() {
			continue
		}
		if lat := soc.BatchLatency(proc, m, 1); lat < best {
			best = lat
		}
	}
	p.est[key] = best
	return best
}

// deviceRingName names a device on the ring (index-derived fallback for
// unnamed devices, so rings are well-defined in tests).
func deviceRingName(d *Device, i int) string {
	if d.Name() != "" {
		return d.Name()
	}
	return fmt.Sprintf("dev%d", i)
}

// liveSet adapts a sorted live-index slice to the ring's predicate form.
func liveSet(live []int) func(int) bool {
	return func(dev int) bool { return contains(live, dev) }
}

// contains reports membership in a sorted int slice.
func contains(sorted []int, v int) bool {
	i := sort.SearchInts(sorted, v)
	return i < len(sorted) && sorted[i] == v
}
