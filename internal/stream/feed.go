package stream

import (
	"sync"
	"sync/atomic"

	"hetero2pipe/internal/obs"
)

// Feed is the scheduler's live window outlet: a bounded ring of completed
// WindowStats plus fan-out subscriptions, read by the observability server
// while a run is in flight (/windows and its SSE variant). One Feed may be
// shared by consecutive runs; Ready reports whether any run is currently
// accepting admissions — the /readyz signal.
//
// Every method is nil-receiver-safe, so the scheduler publishes
// unconditionally and pays two atomic loads when no feed is attached.
type Feed struct {
	mu sync.Mutex
	// ring holds the retained windows; once it is full, head indexes the
	// oldest, which the next publish overwrites.
	ring   []WindowStat
	head   int
	total  int
	subs   map[int]chan WindowStat
	nextID int
	// active counts runs currently inside RunContext (admissions open).
	active atomic.Int32
	// dropCounter counts events dropped on full subscriber buffers
	// (stream_feed_drops_total) once a run binds its registry.
	dropCounter atomic.Pointer[obs.Counter]
}

// DefaultFeedCapacity is the ring size NewFeed applies to non-positive
// capacities.
const DefaultFeedCapacity = 256

// NewFeed returns a feed whose ring retains the last capacity windows
// (capacity ≤ 0 selects DefaultFeedCapacity).
func NewFeed(capacity int) *Feed {
	if capacity <= 0 {
		capacity = DefaultFeedCapacity
	}
	return &Feed{ring: make([]WindowStat, 0, capacity), subs: make(map[int]chan WindowStat)}
}

// start marks a run as accepting admissions.
func (f *Feed) start() {
	if f == nil {
		return
	}
	f.active.Add(1)
}

// stop marks the run as finished.
func (f *Feed) stop() {
	if f == nil {
		return
	}
	f.active.Add(-1)
}

// bindDrops points the feed's drop mirror at a registry counter
// (stream_feed_drops_total). Called by the scheduler at run start; the last
// bound counter wins when runs share a feed.
func (f *Feed) bindDrops(c *obs.Counter) {
	if f == nil {
		return
	}
	f.dropCounter.Store(c)
}

// Ready reports whether a stream run is currently accepting admissions.
func (f *Feed) Ready() bool {
	return f != nil && f.active.Load() > 0
}

// publish appends one completed window to the ring and fans it out to the
// subscribers. Slow subscribers never block the scheduler: a full channel
// drops the event — counted on stream_feed_drops_total so operators can
// detect the gap; the ring keeps the authoritative history.
func (f *Feed) publish(ws WindowStat) {
	if f == nil {
		return
	}
	f.mu.Lock()
	if len(f.ring) < cap(f.ring) {
		f.ring = append(f.ring, ws)
	} else {
		f.ring[f.head] = ws
		f.head = (f.head + 1) % len(f.ring)
	}
	f.total++
	for _, ch := range f.subs {
		select {
		case ch <- ws:
		default:
			if c := f.dropCounter.Load(); c != nil {
				c.Inc()
			}
		}
	}
	f.mu.Unlock()
}

// Total reports how many windows have been published over the feed's
// lifetime, including any the ring has since evicted.
func (f *Feed) Total() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// Live snapshots the retained windows, oldest first.
func (f *Feed) Live() []WindowStat {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.ring) == 0 {
		return nil
	}
	out := make([]WindowStat, 0, len(f.ring))
	return append(append(out, f.ring[f.head:]...), f.ring[:f.head]...)
}

// Subscribe registers a live subscription: every window published after the
// call is sent to the returned channel (buffered; events overflowing the
// buffer are dropped rather than blocking the scheduler). The cancel
// function unregisters and closes the channel.
func (f *Feed) Subscribe(buffer int) (<-chan WindowStat, func()) {
	if f == nil {
		ch := make(chan WindowStat)
		close(ch)
		return ch, func() {}
	}
	if buffer < 1 {
		buffer = 16
	}
	ch := make(chan WindowStat, buffer)
	f.mu.Lock()
	id := f.nextID
	f.nextID++
	f.subs[id] = ch
	f.mu.Unlock()
	cancel := func() {
		f.mu.Lock()
		if _, ok := f.subs[id]; ok {
			delete(f.subs, id)
			close(ch)
		}
		f.mu.Unlock()
	}
	return ch, cancel
}
