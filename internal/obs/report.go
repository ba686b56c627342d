package obs

import "encoding/json"

// RunReport is the structured summary of one stream run. It is built by the
// stream scheduler at the end of RunContext and mirrors the flat counters on
// stream.Result, adding per-layer breakdowns (planner, executor, stream) and
// a per-window table. All durations are reported in milliseconds to keep the
// JSON human-readable; raw nanosecond precision stays on stream.Result.
type RunReport struct {
	SoC           string  `json:"soc"`
	Requests      int     `json:"requests"`
	Completed     int     `json:"completed"`
	MakespanMS    float64 `json:"makespan_ms"`
	MeanSojournMS float64 `json:"mean_sojourn_ms"`
	P50SojournMS  float64 `json:"p50_sojourn_ms"`
	P95SojournMS  float64 `json:"p95_sojourn_ms"`
	P99SojournMS  float64 `json:"p99_sojourn_ms"`

	Planner  PlannerReport  `json:"planner"`
	Executor ExecutorReport `json:"executor"`
	Stream   StreamReport   `json:"stream"`

	// Decomposition aggregates the per-request sojourn breakdowns over every
	// completed, traced request (populated only when request tracing is
	// armed; see stream.Breakdown for component semantics).
	Decomposition *DecompositionReport `json:"sojourn_decomposition,omitempty"`

	Windows []WindowReport `json:"windows,omitempty"`
}

// DecompositionReport totals the sojourn-decomposition components across a
// run's completed requests. The virtual-clock components (queue wait,
// backoff, interrupt loss, exec, handoff transit) sum to the run's total
// sojourn; plan wall is the attributed real planner time, a separate clock
// domain.
type DecompositionReport struct {
	Requests         int     `json:"requests"`
	QueueWaitMS      float64 `json:"queue_wait_ms"`
	BackoffMS        float64 `json:"backoff_ms"`
	InterruptLossMS  float64 `json:"interrupt_loss_ms"`
	ExecMS           float64 `json:"exec_ms"`
	HandoffTransitMS float64 `json:"handoff_transit_ms"`
	PlanWallMS       float64 `json:"plan_wall_ms"`
}

// PlannerReport aggregates planning-side observability across every window
// of the run.
type PlannerReport struct {
	PlanWallMS    float64 `json:"plan_wall_ms"`
	DPCells       uint64  `json:"dp_cells"`
	CacheHits     uint64  `json:"cache_hits"`
	CacheMisses   uint64  `json:"cache_misses"`
	CacheHitRatio float64 `json:"cache_hit_ratio"`
	// Whole-plan cache traffic (zero when the plan cache is disabled): hits
	// are windows served a memoized plan without running the two-step
	// optimisation, misses are windows planned in full.
	PlanCacheHits     uint64  `json:"plan_cache_hits"`
	PlanCacheMisses   uint64  `json:"plan_cache_misses"`
	PlanCacheHitRatio float64 `json:"plan_cache_hit_ratio"`
	// IncrementalReuse counts partition DPs that reused DP rows memoized on
	// the planner's cost-cache entries — fully reused or resumed mid-table.
	IncrementalReuse uint64 `json:"incremental_reuse,omitempty"`
}

// ExecutorReport aggregates execution-side observability across every window
// of the run. Slowdown statistics are over per-slice dilation factors
// relative to the solo estimate (the paper's ψ).
type ExecutorReport struct {
	Slices          int     `json:"slices"`
	BubbleMS        float64 `json:"bubble_ms"`
	AdmissionStalls int     `json:"admission_stalls"`
	PeakMemoryBytes int64   `json:"peak_memory_bytes"`
	MeanSlowdown    float64 `json:"mean_slowdown"`
	MaxSlowdown     float64 `json:"max_slowdown"`
}

// StreamReport aggregates scheduler-side observability.
type StreamReport struct {
	Windows        int `json:"windows"`
	Replans        int `json:"replans"`
	Requeues       int `json:"requeues"`
	PlanRetries    int `json:"plan_retries"`
	DeadlineMisses int `json:"deadline_misses"`
	EventsApplied  int `json:"events_applied"`
	// Handoffs counts requests completed in this run that were re-admitted
	// by fleet failover from another device; Halted marks a run stopped by
	// an exhausted plan-retry budget under HaltInfeasible, with Unfinished
	// requests left for the fleet router to re-route.
	Handoffs   int  `json:"handoffs,omitempty"`
	Halted     bool `json:"halted,omitempty"`
	Unfinished int  `json:"unfinished,omitempty"`
	// DeadlineMissesBySLO attributes the run's deadline misses to resolved
	// SLO classes — the per-class view behind the /slo burn rates. The
	// per-class counts sum to DeadlineMisses.
	DeadlineMissesBySLO map[string]int `json:"deadline_misses_by_slo,omitempty"`
}

// WindowReport is the per-window row of the report table.
type WindowReport struct {
	Index       int     `json:"index"`
	StartMS     float64 `json:"start_ms"`
	EndMS       float64 `json:"end_ms"`
	PlanWallMS  float64 `json:"plan_wall_ms"`
	ExecMS      float64 `json:"exec_ms"`
	Requests    int     `json:"requests"`
	Completed   int     `json:"completed"`
	Requeued    int     `json:"requeued"`
	PlanRetries int     `json:"plan_retries"`
	CacheHits   uint64  `json:"cache_hits"`
	CacheMisses uint64  `json:"cache_misses"`
	// PlanCacheHits/Misses are the window's whole-plan cache traffic
	// (both zero when the plan cache is disabled).
	PlanCacheHits   uint64 `json:"plan_cache_hits"`
	PlanCacheMisses uint64 `json:"plan_cache_misses"`
	DPCells         uint64 `json:"dp_cells"`
	// IncrementalReuse is the window's DP-row reuse count (see
	// PlannerReport.IncrementalReuse).
	IncrementalReuse uint64 `json:"incremental_reuse,omitempty"`
	Interrupted      bool   `json:"interrupted"`
	// Handoffs counts the requests completed in this window that arrived
	// via fleet failover from another device.
	Handoffs int `json:"handoffs,omitempty"`
	// EnergyJoules prices the window's executed schedule under the SoC
	// power model (populated in every planning mode).
	EnergyJoules float64 `json:"energy_joules,omitempty"`
	// SLO and FrontierSize describe frontier-mode planning: the class the
	// window resolved and the number of non-dominated points the planner
	// returned. Both empty under makespan planning.
	SLO          string `json:"slo,omitempty"`
	FrontierSize int    `json:"frontier_size,omitempty"`
}

// JSON renders the report as indented JSON.
func (r *RunReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// FleetReport is the merged report of one fleet run: the fleet-wide roll-up
// plus every device's own RunReport. Built by the fleet layer
// (internal/fleet) as a pure projection of its Result, the same invariant
// RunReport keeps with stream.Result.
type FleetReport struct {
	Devices       int     `json:"devices"`
	Policy        string  `json:"policy"`
	Requests      int     `json:"requests"`
	Completed     int     `json:"completed"`
	Handoffs      int     `json:"handoffs"`
	MakespanMS    float64 `json:"makespan_ms"`
	MeanSojournMS float64 `json:"mean_sojourn_ms"`
	P95SojournMS  float64 `json:"p95_sojourn_ms"`

	// Decomposition aggregates the stitched fleet-wide sojourn breakdowns
	// (populated only when request tracing is armed).
	Decomposition *DecompositionReport `json:"sojourn_decomposition,omitempty"`

	PerDevice []FleetDeviceReport `json:"per_device"`
}

// FleetDeviceReport is one device's row of the fleet report.
type FleetDeviceReport struct {
	Device    string `json:"device"`
	SoC       string `json:"soc"`
	Down      bool   `json:"down"`
	Assigned  int    `json:"assigned"`
	Completed int    `json:"completed"`
	// HandoffsIn counts requests this device completed for failed peers;
	// HandoffsOut counts requests this device abandoned to failover.
	HandoffsIn  int `json:"handoffs_in"`
	HandoffsOut int `json:"handoffs_out"`
	// Report is the device's primary-shard run report; HandoffReports holds
	// one report per failover batch replayed onto this device.
	Report         *RunReport   `json:"report,omitempty"`
	HandoffReports []*RunReport `json:"handoff_reports,omitempty"`
}

// JSON renders the fleet report as indented JSON.
func (r *FleetReport) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
