package stream

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"time"
)

// This file is the request-level tracing layer: every request carries a
// stable TraceID from admission to completion — across interrupts, requeues,
// retry backoffs and fleet failover handoffs — and yields one
// RequestTimeline whose phase events sit on the virtual clock and whose
// sojourn decomposes into components that sum exactly to the measured
// sojourn (the invariant the Decomp tests pin). Completed timelines publish
// into a TraceStore, the bounded flight recorder behind the observability
// server's /requests endpoint.

// TraceID identifies one request across its whole fleet-wide lifetime. The
// zero value means "unassigned": the fleet front-end assigns IDs from the
// fleet-wide request index before sharding (so a handoff re-admission keeps
// its ID), and a standalone scheduler run assigns from the run-local index.
type TraceID uint64

// NewTraceID derives a trace ID for the request at the given index via
// splitmix64 avalanche mixing — deterministic per run, decorrelated across
// indices, and never zero.
func NewTraceID(index int) TraceID {
	z := uint64(index+1) * 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return TraceID(z)
}

// String renders the ID as 16 lowercase hex digits ("" for the zero ID).
func (t TraceID) String() string {
	if t == 0 {
		return ""
	}
	return fmt.Sprintf("%016x", uint64(t))
}

// ParseTraceID parses the 16-hex-digit form back into a TraceID — the
// /requests?trace= query parameter.
func ParseTraceID(s string) (TraceID, error) {
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("stream: bad trace id %q: %w", s, err)
	}
	return TraceID(v), nil
}

// Request lifecycle phases, in the order a request can visit them. A
// timeline always opens with PhaseArrived; PhaseCompleted (and PhaseMissed,
// when the deadline was blown) closes it.
const (
	PhaseArrived     = "arrived"         // virtual arrival instant
	PhaseQueued      = "queued"          // admitted to the scheduler queue
	PhaseAdmitted    = "window_admitted" // taken into a planning window
	PhasePlanned     = "planned"         // the window's plan succeeded
	PhaseExecuting   = "executing"       // the window's execution started
	PhaseInterrupted = "interrupted"     // in-flight work discarded by an event
	PhaseRequeued    = "requeued"        // pushed back to the queue head
	PhaseHalted      = "halted"          // run halted with this request unserved
	PhaseHandedOff   = "handed_off"      // re-routed to a failover device
	PhaseCompleted   = "completed"       // inference finished
	PhaseMissed      = "deadline_missed" // finished past Arrival+Deadline
)

// PhaseEvent is one lifecycle transition on the virtual clock.
type PhaseEvent struct {
	// Phase is one of the Phase* constants.
	Phase string `json:"phase"`
	// At is the transition's virtual-clock instant.
	At time.Duration `json:"at"`
	// Device names the device the transition happened on ("" outside fleet
	// runs).
	Device string `json:"device,omitempty"`
	// Window is the planning-window index on that device, or -1 for
	// transitions outside any window (arrival, queueing, handoff transit).
	Window int `json:"window"`
}

// Breakdown decomposes a request's sojourn into where the virtual time
// went. QueueWait + Backoff + InterruptLoss + Exec + HandoffTransit ==
// Sojourn exactly for every completed request — the accounting telescopes
// over the request's window participations, so nothing is lost or double
// counted across interrupts, requeues and failover hops (VirtualSum pins
// it). PlanWall is the request's attributed share of real planner wall time;
// it lives on the wall clock, not the virtual clock (planning is modelled as
// instantaneous on the simulated timeline), so it is deliberately outside
// the sum.
type Breakdown struct {
	// QueueWait is time spent in the scheduler queue before being taken
	// into a window (summed across requeues).
	QueueWait time.Duration `json:"queue_wait"`
	// Backoff is virtual time spent inside a window's failed-plan retry
	// backoff while this request was admitted to it.
	Backoff time.Duration `json:"backoff"`
	// InterruptLoss is execution time discarded by window interrupts — work
	// the SoC performed on this request's windows that a degradation event
	// threw away.
	InterruptLoss time.Duration `json:"interrupt_loss"`
	// Exec is the time from the completing window's execution start to this
	// request's completion.
	Exec time.Duration `json:"exec"`
	// HandoffTransit is failover dead time: from the source device's last
	// covered instant to re-admission on the rescue device (zero outside
	// fleet runs).
	HandoffTransit time.Duration `json:"handoff_transit"`
	// PlanWall is the request's share of real planner wall-clock time
	// across its windows (window plan wall divided evenly among members).
	// Wall-clock domain: excluded from VirtualSum.
	PlanWall time.Duration `json:"plan_wall"`
}

// VirtualSum totals the virtual-clock components — for a completed request
// this equals its Sojourn exactly.
func (b Breakdown) VirtualSum() time.Duration {
	return b.QueueWait + b.Backoff + b.InterruptLoss + b.Exec + b.HandoffTransit
}

// Add folds another breakdown's components in (fleet timeline stitching).
func (b *Breakdown) Add(o Breakdown) {
	b.QueueWait += o.QueueWait
	b.Backoff += o.Backoff
	b.InterruptLoss += o.InterruptLoss
	b.Exec += o.Exec
	b.HandoffTransit += o.HandoffTransit
	b.PlanWall += o.PlanWall
}

// RequestTimeline is one request's full lifecycle record: identity, phase
// events on the virtual clock and the sojourn decomposition. For a fleet run
// with failover the fleet front-end stitches the per-device partial
// timelines into one fleet-wide timeline spanning every device the request
// touched.
type RequestTimeline struct {
	// Trace is the request's TraceID in 16-hex-digit form.
	Trace string `json:"trace"`
	// Index is the request's index: run-local for a standalone stream run,
	// fleet-wide once the fleet merges timelines.
	Index int `json:"index"`
	// Model is the request's network name.
	Model string `json:"model"`
	// Arrival is the (original) virtual arrival; Deadline the sojourn
	// budget (0 = none).
	Arrival  time.Duration `json:"arrival"`
	Deadline time.Duration `json:"deadline,omitempty"`
	// SLO is the request's resolved SLO class name.
	SLO string `json:"slo,omitempty"`
	// Handoff marks a request that was re-admitted by fleet failover at
	// least once.
	Handoff bool `json:"handoff,omitempty"`
	// Events is the phase history in virtual-clock order.
	Events []PhaseEvent `json:"events"`
	// Completed marks a finished request; a false value is a partial
	// timeline (the request was unserved when its run halted). Missed marks
	// a completion past the deadline.
	Completed bool `json:"completed"`
	Missed    bool `json:"missed,omitempty"`
	// Completion is the absolute completion instant; Sojourn is
	// Completion − Arrival. Both zero on a partial timeline.
	Completion time.Duration `json:"completion,omitempty"`
	Sojourn    time.Duration `json:"sojourn,omitempty"`
	// Breakdown decomposes the sojourn (see Breakdown).
	Breakdown Breakdown `json:"breakdown"`
}

// reqTracer collects per-request timelines during one scheduler run. All
// methods are nil-receiver-safe so the scheduler instruments
// unconditionally; a nil tracer costs one comparison per hook.
type reqTracer struct {
	device string
	reqs   []Request
	tls    []RequestTimeline
	// ready[i] is the instant request i (re)joined the queue: arrival at
	// first, the interrupt instant after a requeue. The decomposition
	// telescopes over [ready, coveredTo] intervals.
	ready []time.Duration
	// Current-window state: start instant, members admitted so far (a
	// stable prefix across retry attempts) and the execution start.
	winStart  time.Duration
	winIdx    int
	admitted  []int // globals admitted to the current window, admission order
	execStart time.Duration
}

// newReqTracer opens a timeline per request, assigning trace IDs to
// requests that carry none and recording the arrival events. defaultSLO is
// the config fallback class name for requests without their own.
func newReqTracer(requests []Request, device string, defaultSLO string) *reqTracer {
	t := &reqTracer{
		device: device,
		reqs:   requests,
		tls:    make([]RequestTimeline, len(requests)),
		ready:  make([]time.Duration, len(requests)),
	}
	for i := range requests {
		id := requests[i].Trace
		if id == 0 {
			id = NewTraceID(i)
		}
		slo := defaultSLO
		if s := requests[i].SLO.String(); s != "" {
			slo = s
		}
		t.tls[i] = RequestTimeline{
			Trace:    id.String(),
			Index:    i,
			Model:    requests[i].Model.Name,
			Arrival:  requests[i].Arrival,
			Deadline: requests[i].Deadline,
			SLO:      slo,
			Handoff:  requests[i].Handoff,
			Events:   []PhaseEvent{{Phase: PhaseArrived, At: requests[i].Arrival, Device: device, Window: -1}},
		}
		t.ready[i] = requests[i].Arrival
	}
	return t
}

// traceID returns the request's assigned trace ID ("" when untraced).
func (t *reqTracer) traceID(global int) string {
	if t == nil {
		return ""
	}
	return t.tls[global].Trace
}

func (t *reqTracer) event(global int, phase string, at time.Duration, window int) {
	t.tls[global].Events = append(t.tls[global].Events,
		PhaseEvent{Phase: phase, At: at, Device: t.device, Window: window})
}

// enqueue records a request joining the scheduler queue at the given
// instant.
func (t *reqTracer) enqueue(global int, at time.Duration) {
	if t == nil {
		return
	}
	t.event(global, PhaseQueued, at, -1)
}

// beginWindow opens a planning window's tracking state.
func (t *reqTracer) beginWindow(window int, start time.Duration) {
	if t == nil {
		return
	}
	t.winIdx = window
	t.winStart = start
	t.admitted = t.admitted[:0]
}

// admitWindow records the window's member set for the current attempt.
// Retry backoff can admit new arrivals, so the member prefix grows across
// attempts; only the new suffix gets events.
func (t *reqTracer) admitWindow(window []int, at time.Duration) {
	if t == nil {
		return
	}
	for _, global := range window[len(t.admitted):] {
		t.admitted = append(t.admitted, global)
		t.event(global, PhaseAdmitted, at, t.winIdx)
	}
}

// planned marks the window's plan succeeding at the given instant (the
// execution start after any retry backoff) and settles each member's
// queue-wait and backoff components: ready → window start waited in queue,
// window start → exec start was retry backoff (the only thing advancing the
// virtual clock between planning attempts). Members that arrived mid-backoff
// charge the whole remainder to backoff.
func (t *reqTracer) planned(at time.Duration) {
	if t == nil {
		return
	}
	t.execStart = at
	for _, global := range t.admitted {
		tl := &t.tls[global]
		joined := t.ready[global]
		if joined < t.winStart {
			tl.Breakdown.QueueWait += t.winStart - t.ready[global]
			joined = t.winStart
		}
		tl.Breakdown.Backoff += at - joined
		t.event(global, PhasePlanned, at, t.winIdx)
		t.event(global, PhaseExecuting, at, t.winIdx)
	}
}

// attributePlanWall spreads the window's real planner wall time evenly
// across its members.
func (t *reqTracer) attributePlanWall(wall time.Duration) {
	if t == nil || len(t.admitted) == 0 {
		return
	}
	share := wall / time.Duration(len(t.admitted))
	for _, global := range t.admitted {
		t.tls[global].Breakdown.PlanWall += share
	}
}

// complete closes a request's timeline at its completion instant.
func (t *reqTracer) complete(global int, done time.Duration, missed bool) {
	if t == nil {
		return
	}
	tl := &t.tls[global]
	tl.Breakdown.Exec += done - t.execStart
	tl.Completed = true
	tl.Missed = missed
	tl.Completion = done
	tl.Sojourn = done - tl.Arrival
	t.event(global, PhaseCompleted, done, t.winIdx)
	if missed {
		t.event(global, PhaseMissed, done, t.winIdx)
	}
}

// interrupt records a window member whose in-flight work was discarded and
// requeued at the interrupt instant: the exec time spent so far is lost
// (InterruptLoss) and the request's ready instant resets for the next
// participation.
func (t *reqTracer) interrupt(global int, at time.Duration) {
	if t == nil {
		return
	}
	t.tls[global].Breakdown.InterruptLoss += at - t.execStart
	t.ready[global] = at
	t.event(global, PhaseInterrupted, at, t.winIdx)
	t.event(global, PhaseRequeued, at, t.winIdx)
}

// halt closes every unserved timeline at the halt instant: members of the
// aborted window charge their wait to queue-wait and (from the window start)
// backoff, other queued requests charge pure queue-wait, and requests that
// had not arrived stay untouched — so each partial timeline's components
// cover exactly [arrival, max(arrival, halt)], the contract the fleet's
// handoff-transit stitching relies on.
func (t *reqTracer) halt(at time.Duration, queue []int) {
	if t == nil {
		return
	}
	member := make(map[int]bool, len(t.admitted))
	for _, global := range t.admitted {
		member[global] = true
		tl := &t.tls[global]
		joined := t.ready[global]
		if joined < t.winStart {
			tl.Breakdown.QueueWait += t.winStart - joined
			joined = t.winStart
		}
		tl.Breakdown.Backoff += at - joined
		t.ready[global] = at
		t.event(global, PhaseHalted, at, t.winIdx)
	}
	for _, global := range queue {
		if member[global] {
			continue
		}
		t.tls[global].Breakdown.QueueWait += at - t.ready[global]
		t.ready[global] = at
		t.event(global, PhaseHalted, at, -1)
	}
}

// timelines releases the collected records (every request, completed or
// partial).
func (t *reqTracer) timelines() []RequestTimeline {
	if t == nil {
		return nil
	}
	return t.tls
}

// DefaultTraceCapacity is the TraceStore ring size applied to non-positive
// capacities; DefaultWorstCapacity bounds the worst-sojourn flight recorder.
const (
	DefaultTraceCapacity = 1024
	DefaultWorstCapacity = 32
)

// TraceStore is the bounded flight recorder behind the observability
// server's /requests endpoint: a ring of recent completed timelines, a map
// for O(1) trace-ID lookup, a worst-sojourn shortlist for post-hoc dumps of
// the fattest requests, and live fan-out subscriptions for SSE consumers.
// Putting a timeline under an existing trace ID replaces it everywhere —
// the hook the fleet uses to overwrite a rescue device's local view with
// the stitched fleet-wide timeline. Every method is nil-receiver-safe.
type TraceStore struct {
	mu       sync.Mutex
	cap      int
	worstCap int
	order    []TraceID // recent ring, completion order
	byTrace  map[TraceID]RequestTimeline
	worst    []RequestTimeline // sorted by descending sojourn, ≤ worstCap
	subs     fanout[RequestTimeline]
	total    int
}

// NewTraceStore returns a store retaining the last capacity timelines and
// the worstCap worst-sojourn ones (non-positive values select
// DefaultTraceCapacity / DefaultWorstCapacity).
func NewTraceStore(capacity, worstCap int) *TraceStore {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	if worstCap <= 0 {
		worstCap = DefaultWorstCapacity
	}
	return &TraceStore{
		cap:      capacity,
		worstCap: worstCap,
		byTrace:  make(map[TraceID]RequestTimeline),
	}
}

// Put records one timeline, replacing any prior entry under the same trace
// ID, and fans it out to subscribers (drop-on-full, never blocking the
// scheduler).
func (s *TraceStore) Put(tl RequestTimeline) {
	if s == nil {
		return
	}
	id, err := ParseTraceID(tl.Trace)
	if err != nil {
		return
	}
	s.mu.Lock()
	if _, exists := s.byTrace[id]; !exists {
		if len(s.order) >= s.cap {
			evict := s.order[0]
			s.order = s.order[1:]
			delete(s.byTrace, evict)
			s.dropWorst(evict)
		}
		s.order = append(s.order, id)
	} else {
		s.dropWorst(id)
	}
	s.byTrace[id] = tl
	s.insertWorst(tl)
	s.total++
	s.subs.send(tl) // drops stay uncounted: the store keeps the timeline
	s.mu.Unlock()
}

// dropWorst removes the entry with the given trace from the worst list (if
// present). Called with the lock held.
func (s *TraceStore) dropWorst(id TraceID) {
	hex := id.String()
	for i := range s.worst {
		if s.worst[i].Trace == hex {
			s.worst = append(s.worst[:i], s.worst[i+1:]...)
			return
		}
	}
}

// insertWorst slots a timeline into the descending-sojourn shortlist.
// Called with the lock held.
func (s *TraceStore) insertWorst(tl RequestTimeline) {
	i := sort.Search(len(s.worst), func(i int) bool { return s.worst[i].Sojourn < tl.Sojourn })
	if i >= s.worstCap {
		return
	}
	s.worst = append(s.worst, RequestTimeline{})
	copy(s.worst[i+1:], s.worst[i:])
	s.worst[i] = tl
	if len(s.worst) > s.worstCap {
		s.worst = s.worst[:s.worstCap]
	}
}

// Get looks one timeline up by its hex trace ID.
func (s *TraceStore) Get(trace string) (RequestTimeline, bool) {
	if s == nil {
		return RequestTimeline{}, false
	}
	id, err := ParseTraceID(trace)
	if err != nil {
		return RequestTimeline{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tl, ok := s.byTrace[id]
	return tl, ok
}

// Recent snapshots the retained timelines, oldest first, capped at n
// (n ≤ 0 = all retained).
func (s *TraceStore) Recent(n int) []RequestTimeline {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ids := s.order
	if n > 0 && len(ids) > n {
		ids = ids[len(ids)-n:]
	}
	out := make([]RequestTimeline, 0, len(ids))
	for _, id := range ids {
		out = append(out, s.byTrace[id])
	}
	return out
}

// Worst returns the n worst-sojourn timelines, fattest first (n ≤ 0 = the
// whole shortlist).
func (s *TraceStore) Worst(n int) []RequestTimeline {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.worst
	if n > 0 && len(out) > n {
		out = out[:n]
	}
	return append([]RequestTimeline(nil), out...)
}

// Total reports how many timelines have ever been put (including replaced
// and evicted ones).
func (s *TraceStore) Total() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Subscribe registers a live subscription: every timeline put after the
// call is sent to the returned channel (buffered; overflow drops rather
// than blocking the scheduler). The cancel function unregisters and closes
// the channel.
func (s *TraceStore) Subscribe(buffer int) (<-chan RequestTimeline, func()) {
	if s == nil {
		return closedSubscription[RequestTimeline]()
	}
	return s.subs.subscribe(buffer)
}
