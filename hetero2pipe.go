package hetero2pipe

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"time"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/fleet"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stream"
	"hetero2pipe/internal/trace"
)

// This file is the library facade: the handful of calls most users need,
// wrapping the internal packages. Power users can reach the full machinery
// through the internal packages directly (this module is self-contained),
// but System covers the common flows: plan a request set, execute it under
// the co-execution slowdown model, run an online stream — with degradation
// events, cancellation and per-window replanning — and export traces.

// System couples one SoC with a configured planner. Since the fleet layer
// landed, a System is a thin wrapper over one fleet.Device — SoC, planner,
// plan cache, window feed and degradation timeline bundled instance-scoped —
// plus, under WithFleet, a Fleet whose device 0 is that same device.
type System struct {
	dev *fleet.Device
	cfg config
	// fl is the sharded serving front-end, non-nil only under WithFleet.
	fl *fleet.Fleet
}

// NewSystem builds a System for a preset SoC name ("Kirin990",
// "Snapdragon778G", "Snapdragon870", "Snapdragon8Gen2", "Dimensity9200").
// With no options it applies the full Hetero²Pipe defaults; pass
// functional options (WithParallelism, WithDegradationEvents, ...) or a
// legacy Options struct to customise.
func NewSystem(preset string, opts ...Option) (*System, error) {
	s := soc.PresetByName(preset)
	if s == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPreset, preset)
	}
	return NewSystemFor(s, opts...)
}

// NewSystemFor builds a System for a custom SoC description.
//
// Under WithFleet(n) the system additionally assembles an n-device fleet:
// device 0 ("dev0") is this SoC, devices 1..n−1 cycle the mixed mobile
// presets (Kirin 990, Snapdragon 778G, Snapdragon 870). All devices share
// the system's planner/stream configuration, metrics registry (through
// per-device labeled views) and logger; run the fleet with
// RunFleetContext.
func NewSystemFor(s *soc.SoC, opts ...Option) (*System, error) {
	if s == nil {
		return nil, errors.New("hetero2pipe: nil SoC")
	}
	cfg := defaultConfig()
	for _, o := range opts {
		o.apply(&cfg)
	}
	// Request tracing and SLO budgets are system-scoped: one flight-recorder
	// store and one monitor, shared by every device (built here, not in the
	// Option, so reusing an Option value across systems never shares state).
	if cfg.tracing {
		cfg.stream.RequestTracing = true
		cfg.stream.Traces = stream.NewTraceStore(cfg.traceCap, 0)
	}
	if len(cfg.sloBudgets) > 0 {
		for class, target := range cfg.sloBudgets {
			if math.IsNaN(target) || math.IsInf(target, 0) {
				return nil, fmt.Errorf("hetero2pipe: SLO budget target %g for %s is not finite", target, class)
			}
		}
		cfg.stream.SLOMonitor = obs.NewSLOMonitor(0, cfg.sloBudgets)
	}
	// fleet.NewDevice fans the registry and logger into planner and
	// scheduler (through a `device` label when the device is named); option
	// order doesn't matter because WithPlannerOptions replaces the struct
	// before this point.
	if cfg.fleetSize > 0 {
		mixed := []func() *soc.SoC{soc.Kirin990, soc.Snapdragon778G, soc.Snapdragon870}
		devices := make([]*fleet.Device, cfg.fleetSize)
		for i := range devices {
			ds := s
			if i > 0 {
				ds = mixed[(i-1)%len(mixed)]()
			}
			dev, err := fleet.NewDevice(fleet.DeviceSpec{
				Name:    fmt.Sprintf("dev%d", i),
				SoC:     ds,
				Planner: cfg.planner,
				Stream:  cfg.stream,
			}, cfg.metrics, cfg.logger)
			if err != nil {
				return nil, err
			}
			devices[i] = dev
		}
		policy, err := fleet.PolicyByName(cfg.fleetPolicy)
		if err != nil {
			return nil, err
		}
		fl, err := fleet.New(devices, fleet.Config{
			Policy:  policy,
			Metrics: cfg.metrics,
			Logger:  cfg.logger,
			Spans:   cfg.spans,
		})
		if err != nil {
			return nil, err
		}
		return &System{dev: devices[0], cfg: cfg, fl: fl}, nil
	}
	dev, err := fleet.NewDevice(fleet.DeviceSpec{
		SoC:     s,
		Planner: cfg.planner,
		Stream:  cfg.stream,
	}, cfg.metrics, cfg.logger)
	if err != nil {
		return nil, err
	}
	return &System{dev: dev, cfg: cfg}, nil
}

// SoC returns the system's SoC description.
func (sys *System) SoC() *soc.SoC { return sys.dev.SoC() }

// Device returns the system's underlying fleet device: the instance-scoped
// bundle of SoC, planner (with plan and cost caches), window feed and
// degradation timeline. Under WithFleet this is the fleet's device 0.
func (sys *System) Device() *fleet.Device { return sys.dev }

// Fleet returns the sharded serving front-end, or nil when the system was
// built without WithFleet.
func (sys *System) Fleet() *fleet.Fleet { return sys.fl }

// CacheStats returns the planner's lifetime cost-cache counters: hits are
// lookups that reused at least one memoized per-(model, processor, batch)
// cost table, misses are lookups that measured at least one fresh table.
// Online streams of recurring models converge to one miss per distinct
// model; a degradation event adds one miss per model only for the affected
// processors' tables.
func (sys *System) CacheStats() (hits, misses uint64) { return sys.dev.Planner().CacheStats() }

// PlanCacheStats returns the planner's lifetime whole-plan cache counters
// (WithPlanCache): a hit is a planning call served a memoized plan without
// running the two-step optimisation, a miss is a call planned in full. Both
// zero when the plan cache is disabled.
func (sys *System) PlanCacheStats() (hits, misses uint64) {
	return sys.dev.Planner().PlanCacheStats()
}

// InvalidateCache drops the planner's memoized cost tables, DP rows and
// plans. Required after editing the SoC description in place outside its
// degradation state (e.g. processor frequency experiments), which no memo
// key sees; the next plan re-measures every model. Degradation events,
// through ApplyEvent or a stream's configured events, need no call.
func (sys *System) InvalidateCache() { sys.dev.Planner().InvalidateCache() }

// ApplyEvent applies one degradation event to the SoC immediately.
// RunStreamContext does this automatically for configured events;
// ApplyEvent is the manual hook for offline experiments. The planner's
// memos key on the SoC state, so the next plan re-measures only what the
// new state changed, and a return to an earlier state finds that state's
// tables and plans again.
func (sys *System) ApplyEvent(ev Event) error {
	_, err := sys.dev.SoC().Apply(ev)
	return err
}

// Models lists the built-in network names: the ten-model evaluation zoo
// followed by the application extras.
func Models() []string {
	return append(model.Names(), model.ExtraNames()...)
}

// Result summarises one planned-and-executed request set.
type Result struct {
	// Latency is the completion time of the last request.
	Latency time.Duration
	// Throughput is completed inferences per second.
	Throughput float64
	// EnergyJoules prices the run under the per-processor power model.
	EnergyJoules float64
	// PeakMemoryBytes is the maximum resident inference memory.
	PeakMemoryBytes int64
	// Plan and Execution expose the underlying artefacts for inspection
	// (stage assignments, timeline, memory traces).
	Plan      *core.Plan
	Execution *pipeline.Result
}

// resolveModels maps built-in model names to their descriptions, wrapping
// unknown names in ErrUnknownModel.
func resolveModels(modelNames []string) ([]*model.Model, error) {
	models := make([]*model.Model, len(modelNames))
	for i, name := range modelNames {
		m, err := model.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("%w: %w", ErrUnknownModel, err)
		}
		models[i] = m
	}
	return models, nil
}

// spanContext arms span tracing (WithSpans) on a run's context — the one
// piece of context plumbing every Run*Context method shares.
func (sys *System) spanContext(ctx context.Context) context.Context {
	return obs.ContextWithRecorder(ctx, sys.cfg.spans)
}

// execOptions assembles the executor options a run hands to the pipeline.
// withMetrics attaches the system registry — true only on the offline
// RunContext/RunModelsContext path; the stream and fleet paths leave
// executor metrics to the device layer, which fans the registry in through
// per-device labeled views. logger, when nil, inherits the system logger
// (WithLogger).
func (sys *System) execOptions(withMetrics bool, logger *slog.Logger) pipeline.Options {
	opts := pipeline.DefaultOptions()
	if withMetrics {
		opts.Metrics = sys.cfg.metrics
	}
	opts.Logger = logger
	if opts.Logger == nil {
		opts.Logger = sys.cfg.logger
	}
	return opts
}

// runSLO resolves the system-level SLO class governing offline frontier
// runs: WithSLOClass, defaulting to latency-critical.
func (sys *System) runSLO() SLOClass {
	if sys.cfg.stream.SLO.Kind != core.SLOUnset {
		return sys.cfg.stream.SLO
	}
	return SLOLatencyCritical
}

// RunContext plans and executes the named models on the system under a
// cancellable context: cancellation aborts both the planner (inside its
// partition DP and worker pools) and the executor, returning an error
// wrapping ErrCancelled.
func (sys *System) RunContext(ctx context.Context, modelNames ...string) (*Result, error) {
	models, err := resolveModels(modelNames)
	if err != nil {
		return nil, err
	}
	return sys.RunModelsContext(ctx, models)
}

// RunModelsContext plans and executes explicit model descriptions (use
// encoding/json into model.Model for custom networks) under a cancellable
// context. Under WithObjective(ObjectiveFrontier) the planner enumerates
// the Pareto frontier and the run executes the point selected by the
// system's SLO class (WithSLOClass, default latency-critical — whose point
// has the makespan plan's makespan and is no worse on any other axis).
func (sys *System) RunModelsContext(ctx context.Context, models []*model.Model) (*Result, error) {
	ctx = sys.spanContext(ctx)
	var plan *core.Plan
	if sys.cfg.stream.Objective == ObjectiveFrontier {
		f, _, _, err := sys.dev.Planner().PlanFrontierModels(ctx, models, 1)
		if err != nil {
			return nil, wrapRunErr(err)
		}
		plan = f.Select(sys.runSLO()).Plan
	} else {
		p, _, _, err := sys.dev.Planner().PlanModels(ctx, models, 1)
		if err != nil {
			return nil, wrapRunErr(err)
		}
		plan = p
	}
	exec, err := pipeline.ExecuteContext(ctx, plan.Schedule, sys.execOptions(true, nil))
	if err != nil {
		return nil, wrapRunErr(err)
	}
	return &Result{
		Latency:         exec.Makespan,
		Throughput:      exec.Throughput(),
		EnergyJoules:    exec.EnergyJoules,
		PeakMemoryBytes: exec.PeakMemoryBytes,
		Plan:            plan,
		Execution:       exec,
	}, nil
}

// PlanFrontierContext enumerates the Pareto frontier over (makespan,
// throughput, energy, peak memory) for the named models under a
// cancellable context, without executing anything. Pick a point with
// Frontier.Select and an SLO class; the first point (min makespan) has the
// makespan of the plan RunContext executes under the default objective and
// is no worse on any other axis. One plan-cache entry (WithPlanCache)
// serves a window's frontier and its single plan alike.
func (sys *System) PlanFrontierContext(ctx context.Context, modelNames ...string) (*Frontier, error) {
	models, err := resolveModels(modelNames)
	if err != nil {
		return nil, err
	}
	return sys.PlanFrontierModelsContext(ctx, models)
}

// PlanFrontierModelsContext is PlanFrontierContext for explicit model
// descriptions.
func (sys *System) PlanFrontierModelsContext(ctx context.Context, models []*model.Model) (*Frontier, error) {
	ctx = sys.spanContext(ctx)
	f, _, _, err := sys.dev.Planner().PlanFrontierModels(ctx, models, 1)
	if err != nil {
		return nil, wrapRunErr(err)
	}
	return f, nil
}

// SerialBaseline returns the serial big-CPU latency of the named models —
// the vanilla-MNN reference to quote speedups against.
func (sys *System) SerialBaseline(modelNames ...string) (time.Duration, error) {
	bigs := sys.dev.SoC().ProcessorsOfKind(soc.KindCPUBig)
	if len(bigs) == 0 {
		return 0, fmt.Errorf("%w: SoC has no big CPU cluster", ErrNoProcessor)
	}
	big := &sys.dev.SoC().Processors[bigs[0]]
	var total time.Duration
	for _, name := range modelNames {
		m, err := model.ByName(name)
		if err != nil {
			return 0, fmt.Errorf("%w: %w", ErrUnknownModel, err)
		}
		lat := soc.BatchLatency(big, m, 1)
		if lat == soc.InfDuration {
			return 0, fmt.Errorf("%w: %s cannot run on the big CPU", ErrNoProcessor, name)
		}
		total += lat
	}
	return total, nil
}

// ChromeTrace renders a result's execution as Chrome trace-event JSON.
func (r *Result) ChromeTrace() ([]byte, error) {
	return trace.ChromeTrace(r.Plan.Schedule, r.Execution)
}

// Gantt renders a result's execution as an ASCII timeline.
func (r *Result) Gantt(width int) string {
	return trace.Gantt(r.Plan.Schedule, r.Execution, width)
}

// Event re-exports the degradation event type injected into online runs.
type Event = soc.Event

// EventKind re-exports the degradation event kind.
type EventKind = soc.EventKind

// Degradation event kinds, re-exported for facade callers.
const (
	EventThermalThrottle  = soc.EventThermalThrottle
	EventFrequencyScale   = soc.EventFrequencyScale
	EventProcessorOffline = soc.EventProcessorOffline
	EventProcessorOnline  = soc.EventProcessorOnline
	EventBandwidthSqueeze = soc.EventBandwidthSqueeze
)

// ParseEvents parses a comma-separated list of degradation event specs in
// the grammar kind[:processor]@at[:factor], e.g.
// "throttle:cpu-big@10ms:1.8,offline:npu@40ms,bus@20ms:0.6". Results are
// sorted by time.
func ParseEvents(csv string) ([]Event, error) {
	return soc.ParseEvents(csv)
}

// StreamConfig re-exports the online scheduler configuration.
type StreamConfig = stream.Config

// StreamRequest re-exports the online request type (including its SLO
// class, honoured under frontier planning).
type StreamRequest = stream.Request

// ObjectiveMode re-exports the planning-mode selector (WithObjective).
type ObjectiveMode = core.ObjectiveMode

// Planning modes, re-exported for facade callers.
const (
	// ObjectiveMakespan plans the min-makespan schedule (the default).
	ObjectiveMakespan = core.ObjectiveMakespan
	// ObjectiveFrontier enumerates the Pareto frontier over (makespan,
	// throughput, energy, peak memory) and selects a point per SLO class.
	ObjectiveFrontier = core.ObjectiveFrontier
)

// ParseObjective maps a CLI/config string ("makespan", "frontier",
// "pareto", "") to an ObjectiveMode.
func ParseObjective(s string) (ObjectiveMode, error) { return core.ParseObjective(s) }

// Objective re-exports one plan's executed value on every planning axis.
type Objective = core.Objective

// Frontier re-exports the planner's non-dominated set (PlanFrontierContext),
// sorted by ascending makespan; FrontierPoint is one plan on it.
type Frontier = core.Frontier

// FrontierPoint re-exports one non-dominated plan with its objective.
type FrontierPoint = core.FrontierPoint

// SLOClass re-exports the service-level-objective class selecting a
// frontier point (WithSLOClass, StreamRequest.SLO); SLOWeights the weight
// vector of a custom class.
type SLOClass = core.SLOClass

// SLOWeights re-exports the custom-class weight vector (CustomSLO).
type SLOWeights = core.Weights

// The built-in SLO classes, re-exported for facade callers.
var (
	// SLOLatencyCritical selects the min-makespan frontier point: the
	// default planner's makespan, no worse on any other axis.
	SLOLatencyCritical = core.SLOLatencyCritical
	// SLOBalanced trades all four axes with equal weight.
	SLOBalanced = core.SLOBalanced
	// SLOBatterySaver selects the min-energy frontier point.
	SLOBatterySaver = core.SLOBatterySaver
)

// CustomSLO builds a weighted SLO class from relative axis weights.
func CustomSLO(w SLOWeights) SLOClass { return core.CustomSLO(w) }

// ParseSLOClass parses an SLO class name ("latency-critical", "balanced",
// "battery-saver", "custom:w,w,w,w"; "" = scheduler default). Unknown
// names return an error wrapping ErrUnknownSLOClass.
func ParseSLOClass(s string) (SLOClass, error) { return core.ParseSLOClass(s) }

// StrictestSLO resolves the strictest (most latency-sensitive) class of a
// set — the rule a shared planning window applies to its members.
func StrictestSLO(classes ...SLOClass) SLOClass { return core.StrictestSLO(classes...) }

// StreamResult re-exports the online run summary, including degradation
// stats (replans, retried requests, deadline misses, per-window detail).
type StreamResult = stream.Result

// DefaultStreamConfig returns the default online configuration (window of
// eight, batching on, a modest retry budget).
func DefaultStreamConfig() StreamConfig { return stream.DefaultConfig() }

// MetricsRegistry re-exports the observability registry: named counters,
// gauges and fixed-bucket histograms, lock-free on the hot path and
// snapshot-able without stopping the world. Attach one with WithMetrics.
type MetricsRegistry = obs.Registry

// MetricsSnapshot re-exports a point-in-time view of a registry.
type MetricsSnapshot = obs.Snapshot

// RunReport re-exports the structured JSON run report populated on
// StreamResult.Report (and buildable for offline runs via h2pipe -report).
type RunReport = obs.RunReport

// NewMetricsRegistry creates a metrics registry. The name prefixes every
// exported series ("<name>_<metric>") in Prometheus text output.
func NewMetricsRegistry(name string) *MetricsRegistry { return obs.NewRegistry(name) }

// WritePrometheus writes a registry snapshot in Prometheus text
// exposition format.
func WritePrometheus(w io.Writer, reg *MetricsRegistry) error {
	return obs.WritePrometheus(w, reg)
}

// RunStreamContext executes an arrival-ordered request stream with
// per-window planning (the online deployment mode) under a cancellable
// context: cancellation aborts within one planning window on the simulated
// clock and returns an error wrapping ErrCancelled.
//
// Degradation events configured on the System (WithDegradationEvents)
// apply when cfg carries no events of its own; cfg.Events, when set,
// takes precedence for this run. The same inheritance covers the planning
// objective and default SLO class (WithObjective, WithSLOClass) when cfg
// leaves them zero-valued.
func (sys *System) RunStreamContext(ctx context.Context, requests []StreamRequest, cfg StreamConfig) (*StreamResult, error) {
	// The zero-value-config inheritance (WithWindow, WithMaxBatch,
	// WithDegradationEvents, objective/SLO, metrics/logger/feed fan-in)
	// lives on the device — stream scheduling is instance-scoped.
	res, err := sys.dev.Run(sys.spanContext(ctx), requests, cfg, sys.execOptions(false, cfg.Logger))
	if err != nil {
		return nil, wrapRunErr(err)
	}
	return res, nil
}

// FleetResult re-exports the fleet run summary: per-device results, fleet
// completions/sojourns indexed by request, handoff counts and the merged
// FleetReport.
type FleetResult = fleet.Result

// FleetReport re-exports the merged fleet run report (per-device rows plus
// the fleet-wide roll-up).
type FleetReport = obs.FleetReport

// FleetStatus re-exports the fleet's live state — the payload of the
// observability server's /fleet endpoint.
type FleetStatus = fleet.Status

// FleetPoissonArrivals generates a fleet-wide arrival sequence whose
// per-device substreams are decorrelated via per-device seeds (splitmix64
// over one base seed), merged arrival-sorted. devices ≤ 1 matches
// stream.PoissonArrivals exactly.
func FleetPoissonArrivals(models []*model.Model, meanGap time.Duration, seed uint64, devices int) []StreamRequest {
	return fleet.PoissonArrivals(models, meanGap, seed, devices)
}

// RunFleetContext shards an arrival-ordered request stream across the
// fleet (WithFleet) and runs every device's shard concurrently under a
// cancellable context, failing halted devices' backlogs over to healthy
// peers. Per-request SLO classes (StreamRequest.SLO) travel with their
// requests through routing and failover unchanged; a handed-off request's
// deadline travels as what is left of its budget, so every deadline verdict
// is judged against the original arrival.
func (sys *System) RunFleetContext(ctx context.Context, requests []StreamRequest) (*FleetResult, error) {
	if sys.fl == nil {
		return nil, errors.New("hetero2pipe: system built without WithFleet")
	}
	res, err := sys.fl.RunContext(ctx, requests, sys.execOptions(false, nil))
	if err != nil {
		return nil, wrapRunErr(err)
	}
	return res, nil
}
