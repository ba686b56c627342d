// Package fleet scales Hetero²Pipe from one SoC to many: a Device wraps one
// SoC with its own planner, plan cache, window feed and degradation event
// stream, and a Fleet shards an arrival-ordered request stream across N
// mixed-preset devices by pluggable routing policy (consistent hashing or
// least-sojourn), failing windows over to healthy peers when a device's
// processors go offline mid-run.
//
// The Device extraction is deliberately a pure refactor of the single-SoC
// path: a 1-device fleet produces results byte-identical to running
// stream.Scheduler directly (pinned by the differential test in
// fleet_diff_test.go). Every device publishes into one shared obs registry
// through per-device labeled views (`name{device="dev0"}` series), so a
// fleet run is also the first real concurrent stress on the lock-free obs
// store.
package fleet

import (
	"context"
	"errors"
	"fmt"
	"log/slog"

	"hetero2pipe/internal/core"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stream"
)

// DeviceSpec describes one device to construct: its SoC, planner
// configuration and stream scheduler defaults (including the device's own
// degradation event timeline on Stream.Events).
type DeviceSpec struct {
	// Name identifies the device in metrics labels, spans, reports and the
	// /fleet endpoint ("dev0", "dev1", ...). An empty name skips metric
	// labeling — the single-device facade path, which must keep the
	// unlabeled series names it always had.
	Name string
	// SoC is the device's processor description. Required; use a fresh
	// instance per device (soc.PresetByName returns one) — devices mutate
	// their SoC through degradation events.
	SoC *soc.SoC
	// Planner configures the device's planner (plan cache size, mitigation,
	// parallelism, ...).
	Planner core.Options
	// Stream is the device's default scheduler configuration; Stream.Events
	// is the device's own degradation timeline.
	Stream stream.Config
}

// Device is one instance-scoped scheduler: SoC + planner (with its plan and
// cost caches) + window feed + degradation events. It is the unit the fleet
// router shards over, and what the library facade wraps for single-SoC use.
type Device struct {
	name    string
	soc     *soc.SoC
	planner *core.Planner
	feed    *stream.Feed
	cfg     stream.Config
}

// NewDevice builds a device from its spec. reg, when non-nil, becomes the
// device's metrics outlet: a named spec gets a `device="<name>"` labeled
// view of it (sharing reg's store), an unnamed spec writes unlabeled.
// logger, when non-nil, is attached to planner and scheduler the same way.
func NewDevice(spec DeviceSpec, reg *obs.Registry, logger *slog.Logger) (*Device, error) {
	if spec.SoC == nil {
		return nil, errors.New("fleet: device spec has nil SoC")
	}
	view := reg
	if spec.Name != "" {
		view = reg.WithLabels("device", spec.Name)
	}
	popts := spec.Planner
	scfg := spec.Stream
	if view != nil {
		popts.Metrics = view
		scfg.Metrics = view
	}
	if logger != nil {
		popts.Logger = logger
		scfg.Logger = logger
	}
	// Phase events and partial timelines carry the device identity through
	// fleet stitching.
	if scfg.DeviceName == "" {
		scfg.DeviceName = spec.Name
	}
	scfg = inheritWindowing(scfg, stream.DefaultConfig())
	feed := stream.NewFeed(0)
	scfg.Feed = feed
	planner, err := core.NewPlanner(spec.SoC, popts)
	if err != nil {
		return nil, fmt.Errorf("fleet: device %q: %w", spec.Name, err)
	}
	return &Device{
		name:    spec.Name,
		soc:     spec.SoC,
		planner: planner,
		feed:    feed,
		cfg:     scfg,
	}, nil
}

// inheritWindowing is the one rule for a stream config that leaves
// MaxWindow zero: MaxWindow comes from src, and so do MaxBatch, MaxRetries,
// RetryBackoff and HaltInfeasible wherever cfg left them zero. Every field
// cfg set is kept; a config with a MaxWindow is returned as given.
func inheritWindowing(cfg, src stream.Config) stream.Config {
	if cfg.MaxWindow != 0 {
		return cfg
	}
	cfg.MaxWindow = src.MaxWindow
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = src.MaxBatch
	}
	if cfg.MaxRetries == 0 {
		cfg.MaxRetries = src.MaxRetries
	}
	if cfg.RetryBackoff == 0 {
		cfg.RetryBackoff = src.RetryBackoff
	}
	cfg.HaltInfeasible = cfg.HaltInfeasible || src.HaltInfeasible
	return cfg
}

// Name reports the device's fleet name ("" for an unnamed facade device).
func (d *Device) Name() string { return d.name }

// SoC returns the device's SoC description.
func (d *Device) SoC() *soc.SoC { return d.soc }

// Planner returns the device's planner.
func (d *Device) Planner() *core.Planner { return d.planner }

// Feed returns the device's live window feed (the obs server's /windows and
// /readyz backing).
func (d *Device) Feed() *stream.Feed { return d.feed }

// StreamConfig returns the device's default scheduler configuration.
func (d *Device) StreamConfig() stream.Config { return d.cfg }

// Live reports whether any of the device's processors is in service. A
// device whose processors are all offline cannot plan any window
// (core.ErrInfeasiblePartition) and is skipped by the router.
func (d *Device) Live() bool {
	return len(d.soc.AvailableProcessors()) > 0
}

// Run executes an arrival-ordered request stream on this device. A cfg
// with MaxWindow 0 takes the device's windowing (inheritWindowing); every
// field the caller set is kept, and the device's events, metrics view,
// logger, feed, objective, SLO class, tracing outlets and name fill in only
// where cfg left them unset — so a nil Events runs the device's timeline
// and a non-nil empty one runs none. This is the instance-scoped scheduler
// invocation the library facade (System.RunStreamContext) builds on; the
// fleet runs its shards through run, on configs it builds in full.
func (d *Device) Run(ctx context.Context, requests []stream.Request, cfg stream.Config, execOpts pipeline.Options) (*stream.Result, error) {
	cfg = inheritWindowing(cfg, d.cfg)
	if cfg.Events == nil {
		cfg.Events = d.cfg.Events
	}
	if cfg.Metrics == nil {
		cfg.Metrics = d.cfg.Metrics
	}
	if cfg.Logger == nil {
		cfg.Logger = d.cfg.Logger
	}
	if cfg.Feed == nil {
		cfg.Feed = d.feed
	}
	if cfg.Objective == core.ObjectiveMakespan {
		cfg.Objective = d.cfg.Objective
	}
	if cfg.SLO.Kind == core.SLOUnset {
		cfg.SLO = d.cfg.SLO
	}
	if !cfg.RequestTracing {
		cfg.RequestTracing = d.cfg.RequestTracing
	}
	if cfg.Traces == nil {
		cfg.Traces = d.cfg.Traces
	}
	if cfg.SLOMonitor == nil {
		cfg.SLOMonitor = d.cfg.SLOMonitor
	}
	if cfg.DeviceName == "" {
		cfg.DeviceName = d.cfg.DeviceName
	}
	return d.run(ctx, requests, cfg, execOpts)
}

// run executes an arrival-ordered request stream on this device under cfg
// exactly as given.
func (d *Device) run(ctx context.Context, requests []stream.Request, cfg stream.Config, execOpts pipeline.Options) (*stream.Result, error) {
	sched, err := stream.NewScheduler(d.planner, cfg)
	if err != nil {
		return nil, err
	}
	return sched.RunContext(ctx, requests, execOpts)
}
