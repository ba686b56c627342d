// Command h2pipe plans and simulates a multi-DNN pipeline on a chosen SoC
// preset: it runs the Hetero²Pipe planner over the requested models, prints
// the resulting schedule, executes it under the co-execution slowdown model
// and reports latency, throughput and the speedup over serial CPU execution.
//
// Usage:
//
//	h2pipe -soc Kirin990 -models YOLOv4,BERT,SqueezeNet,ResNet50
//
// Online serving mode replays a Poisson arrival stream with per-window
// planning, optionally under injected degradation events:
//
//	h2pipe -stream -gap 10ms -events offline:npu@40ms,throttle:gpu@10ms:1.8
//
// Ctrl-C cancels a run cleanly (the planner and executor are
// context-aware); the partial state is discarded.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"time"

	"hetero2pipe"
	"hetero2pipe/internal/baseline"
	"hetero2pipe/internal/core"
	"hetero2pipe/internal/fleet"
	"hetero2pipe/internal/model"
	"hetero2pipe/internal/obs"
	"hetero2pipe/internal/pipeline"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
	"hetero2pipe/internal/stats"
	"hetero2pipe/internal/trace"
	"hetero2pipe/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "h2pipe:", err)
		os.Exit(1)
	}
}

// cliMode is one kind of h2pipe invocation: -list-models, -compare,
// -stream with or without -fleet, or the offline plan. The modes are bits,
// so a flag's entry in flagModes is the set of modes that read it.
type cliMode uint8

const (
	modeList cliMode = 1 << iota
	modeCompare
	modeOffline
	modeStream
	modeFleet

	modeServing = modeStream | modeFleet
	modeRun     = modeOffline | modeServing
	modePlan    = modeCompare | modeRun
)

// flagModes is the one table of which modes read each flag. A flag set on
// the command line that the chosen mode never reads is an error rather
// than silently ignored: a file never written, an event never applied or a
// planner switch never thrown.
var flagModes = map[string]cliMode{
	"soc": modePlan, "soc-json": modePlan, "models": modePlan,
	"list-models": modeList,
	"compare":     modeCompare,
	// -compare plans every scheme with its own fixed options.
	"no-mitigation": modeRun, "no-worksteal": modeRun, "no-tailopt": modeRun,
	"plan-cache": modeRun, "objective": modeRun, "slo": modeRun,
	// The offline plan applies -events at once, the serving modes on the
	// stream clock.
	"events": modeRun,
	"report": modeRun, "metrics": modeRun, "spans": modeRun, "serve": modeRun, "log-level": modeRun,
	// The plan printout, Gantt and HTML report draw the offline plan;
	// the Chrome trace draws one device's execution.
	"plan": modeOffline, "gantt": modeOffline, "html": modeOffline,
	"trace": modeOffline | modeStream,
	// -fleet 0 keeps a -stream run on one device.
	"stream": modeServing, "fleet": modeServing, "gap": modeServing, "window": modeServing,
	// Only serving runs record request timelines and deadline verdicts.
	"request-trace": modeServing, "slo-budget": modeServing,
	"policy": modeFleet,
}

// checkFlags returns the mode the parsed flags select, or an error naming
// every explicitly set flag that mode never reads.
func checkFlags(fs *flag.FlagSet, list, compare, stream bool, fleetN int) (cliMode, error) {
	mode, name := modeOffline, "offline"
	switch {
	case list:
		mode, name = modeList, "-list-models"
	case compare:
		mode, name = modeCompare, "-compare"
	case stream && fleetN > 0:
		mode, name = modeFleet, "-stream -fleet"
	case stream:
		mode, name = modeStream, "-stream"
	}
	var unread []string
	fs.Visit(func(f *flag.Flag) {
		if flagModes[f.Name]&mode == 0 {
			unread = append(unread, "-"+f.Name)
		}
	})
	if len(unread) > 0 {
		return mode, fmt.Errorf("%s not read in %s mode", strings.Join(unread, ", "), name)
	}
	return mode, nil
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("h2pipe", flag.ContinueOnError)
	var (
		socName    = fs.String("soc", "Kirin990", "SoC preset: Kirin990, Snapdragon778G, Snapdragon870")
		socJSON    = fs.String("soc-json", "", "load a custom SoC description from a JSON file (overrides -soc)")
		modelsFlag = fs.String("models", "YOLOv4,SqueezeNet,BERT,ResNet50", "comma-separated zoo model names")
		listModels = fs.Bool("list-models", false, "list zoo models and exit")
		noMit      = fs.Bool("no-mitigation", false, "disable contention mitigation")
		noSteal    = fs.Bool("no-worksteal", false, "disable work stealing")
		noTail     = fs.Bool("no-tailopt", false, "disable tail optimisation")
		showPlan   = fs.Bool("plan", true, "print the per-request stage assignment")
		ganttWidth = fs.Int("gantt", 72, "ASCII timeline width (0 disables)")
		traceOut   = fs.String("trace", "", "write a Chrome trace-event JSON file of the execution (offline plan or single-device -stream)")
		htmlOut    = fs.String("html", "", "write a standalone HTML report (SVG Gantt + metrics) of the offline plan")
		compare    = fs.Bool("compare", false, "run every scheme (MNN, Pipe-it, Band, No-C/T, H²P) and print a comparison table")
		streamMode = fs.Bool("stream", false, "online serving: Poisson arrivals with per-window planning")
		eventsFlag = fs.String("events", "", "degradation events kind[:proc]@at[:factor], comma-separated (e.g. offline:npu@40ms,throttle:gpu@10ms:1.8); applied on the stream clock, or immediately without -stream")
		gap        = fs.Duration("gap", 10*time.Millisecond, "mean inter-arrival gap in -stream mode")
		window     = fs.Int("window", 8, "max requests per planning window in -stream mode")
		fleetN     = fs.Int("fleet", 0, "shard the -stream run across N devices (device 0 is -soc, the rest cycle the mobile presets; 0 disables)")
		policyName = fs.String("policy", fleet.PolicyHash, "fleet routing policy: "+strings.Join(fleet.PolicyNames(), " or "))
		planCache  = fs.Int("plan-cache", 0, "memoize up to N whole plans keyed by SoC state + window signature (0 disables); a window recurring in a state it was planned in skips the planner entirely")
		objFlag    = fs.String("objective", "makespan", "planning objective: makespan (single min-latency plan) or frontier (Pareto frontier over makespan/throughput/energy/peak memory)")
		sloFlag    = fs.String("slo", "", "SLO class picking the frontier point under -objective frontier: latency-critical, balanced, battery-saver or custom:w,w,w,w (weights for makespan,throughput,energy,memory; default latency-critical)")
		report     = fs.Bool("report", false, "print a structured JSON run report on stdout")
		metricsOut = fs.String("metrics", "", "write the metrics registry in Prometheus text format to a file")
		serveAddr  = fs.String("serve", "", "serve live observability HTTP (/metrics, /vars, /debug/pprof, /healthz, /readyz, /windows, /spans) on this address; keeps serving after the run until Ctrl-C")
		logLevel   = fs.String("log-level", "", "structured logging to stderr at this level: debug, info, warn or error (empty disables)")
		spansOut   = fs.String("spans", "", "record a span trace of the run and write it as OTLP JSON to this file")
		reqTrace   = fs.String("request-trace", "", "arm per-request distributed tracing and write the request timelines (phase events + sojourn decomposition) as JSON to this file; also serves /requests under -serve")
		sloBudget  = fs.String("slo-budget", "", "SLO error budgets class=target, comma-separated (e.g. latency-critical=0.01,balanced=0.05); prints per-class burn rates after the run and serves /slo under -serve")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	mode, err := checkFlags(fs, *listModels, *compare, *streamMode, *fleetN)
	if err != nil {
		return err
	}
	if mode == modeList {
		for _, n := range append(model.Names(), model.ExtraNames()...) {
			m := model.MustByName(n)
			fmt.Printf("%-12s %4d layers %8.2f GFLOPs %7.1f MB weights\n",
				n, m.NumLayers(), m.TotalFLOPs()/1e9, float64(m.TotalWeightBytes())/1e6)
		}
		return nil
	}
	var s *soc.SoC
	if *socJSON != "" {
		data, err := os.ReadFile(*socJSON)
		if err != nil {
			return err
		}
		s = new(soc.SoC)
		if err := json.Unmarshal(data, s); err != nil {
			return fmt.Errorf("parsing %s: %w", *socJSON, err)
		}
	} else {
		s = soc.PresetByName(*socName)
		if s == nil {
			return fmt.Errorf("unknown SoC preset %q", *socName)
		}
	}
	names := strings.Split(*modelsFlag, ",")
	models, err := workload.Instantiate(names)
	if err != nil {
		return err
	}

	if mode == modeCompare {
		return runComparison(ctx, s, models)
	}

	events, err := hetero2pipe.ParseEvents(*eventsFlag)
	if err != nil {
		return err
	}
	objective, err := hetero2pipe.ParseObjective(*objFlag)
	if err != nil {
		return err
	}
	slo, err := hetero2pipe.ParseSLOClass(*sloFlag)
	if err != nil {
		return err
	}
	logger, err := buildLogger(*logLevel)
	if err != nil {
		return err
	}
	budgets, err := parseSLOBudgets(*sloBudget)
	if err != nil {
		return err
	}
	// -window sizes every -stream window, a fleet device's included. The
	// facade reads WithWindow(0) as "use the default", so the CLI rejects a
	// window below 1 itself.
	if mode&modeServing != 0 && *window < 1 {
		return fmt.Errorf("-window %d < 1", *window)
	}

	popts := hetero2pipe.DefaultPlannerOptions()
	popts.Mitigation = !*noMit
	popts.WorkStealing = !*noSteal
	popts.TailOptimization = !*noTail
	popts.PlanCache = *planCache
	var reg *hetero2pipe.MetricsRegistry
	if *metricsOut != "" || *serveAddr != "" {
		reg = hetero2pipe.NewMetricsRegistry("h2pipe")
	}
	// The Chrome stream trace is rendered from the span ring, so a
	// single-device -stream -trace arms one too.
	var rec *hetero2pipe.SpanRecorder
	if *spansOut != "" || *serveAddr != "" || (mode == modeStream && *traceOut != "") {
		rec = hetero2pipe.NewSpanRecorder(0)
	}
	opts := append([]hetero2pipe.Option{
		hetero2pipe.WithPlannerOptions(popts),
		hetero2pipe.WithWindow(*window),
		hetero2pipe.WithDegradationEvents(events...),
		hetero2pipe.WithObjective(objective),
		hetero2pipe.WithSLOClass(slo),
		hetero2pipe.WithMetrics(reg),
		hetero2pipe.WithLogger(logger),
		hetero2pipe.WithSpans(rec),
	}, budgets...)
	if *reqTrace != "" {
		opts = append(opts, hetero2pipe.WithRequestTracing(0))
	}
	if mode == modeFleet {
		policy, err := hetero2pipe.ParsePolicy(*policyName)
		if err != nil {
			return err
		}
		opts = append(opts, hetero2pipe.WithFleet(*fleetN), hetero2pipe.WithFleetPolicy(policy))
	}
	sys, err := hetero2pipe.NewSystemFor(s, opts...)
	if err != nil {
		return err
	}

	// The observability server runs alongside the workload and keeps serving
	// after it completes, so the run's metrics, spans and windows stay
	// curl-able until the process is interrupted.
	srvDone := make(chan error, 1)
	waitServe := func() error { return nil }
	if *serveAddr != "" {
		go func() {
			srvDone <- sys.ServeObs(ctx, *serveAddr, func(a net.Addr) {
				fmt.Printf("observability server on http://%s\n", a)
			})
		}()
		waitServe = func() error {
			fmt.Println("observability server still serving; Ctrl-C to exit")
			return <-srvDone
		}
	}

	out := streamOutputs{
		report:      *report,
		metricsOut:  *metricsOut,
		traceOut:    *traceOut,
		spansOut:    *spansOut,
		reqTraceOut: *reqTrace,
		registry:    reg,
		spans:       rec,
	}
	if mode == modeFleet {
		if err := runFleet(ctx, sys, models, *gap, out); err != nil {
			return err
		}
		return waitServe()
	}
	if mode == modeStream {
		if err := runStream(ctx, sys, models, len(events) > 0, *gap, objective, slo, out); err != nil {
			return err
		}
		return waitServe()
	}
	// Without -stream, events apply immediately (their timestamps are
	// ignored): plan against the already-degraded SoC.
	for _, ev := range events {
		if err := sys.ApplyEvent(ev); err != nil {
			return err
		}
		fmt.Printf("applied %v\n", ev)
	}
	// Plan and execute on the system's own planner: the frontier is printed
	// and planning is timed apart from execution. The span ring records
	// these two steps only, not the serial reference below.
	planner := sys.Device().Planner()
	spanCtx := obs.ContextWithRecorder(ctx, rec)
	planStart := time.Now()
	var plan *core.Plan
	var acc core.Account
	if objective == core.ObjectiveFrontier {
		var f *core.Frontier
		if f, _, acc, err = planner.PlanFrontierModels(spanCtx, models, 1); err != nil {
			return err
		}
		pt := f.Select(slo)
		plan = pt.Plan
		printFrontier(f, pt, slo)
	} else {
		if plan, _, acc, err = planner.PlanModels(spanCtx, models, 1); err != nil {
			return err
		}
	}
	planWall := time.Since(planStart)
	execOpts := pipeline.DefaultOptions()
	execOpts.Metrics = reg
	execOpts.Logger = logger
	res, err := pipeline.ExecuteContext(spanCtx, plan.Schedule, execOpts)
	if err != nil {
		return err
	}
	if *spansOut != "" {
		if err := writeSpans(*spansOut, rec, s.Name); err != nil {
			return err
		}
	}

	if *report {
		rep := offlineReport(s, acc, res, planWall)
		raw, err := rep.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(raw))
	}
	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, reg); err != nil {
			return err
		}
	}

	fmt.Printf("SoC: %s (%d processors)\n", s.Name, s.NumProcessors())
	if *showPlan {
		fmt.Println("\nplanned pipeline (requests in execution order):")
		for i := range plan.Schedule.Profiles {
			m := plan.Schedule.Profiles[i].Model()
			fmt.Printf("  %2d. %-12s [%s, intensity %.2f GB/s] stages:", i+1, m.Name,
				plan.Classes[i], plan.Intensities[i])
			for k := 0; k < plan.Schedule.NumStages(); k++ {
				r := plan.Schedule.Stages[i][k]
				if r.Empty() {
					continue
				}
				fmt.Printf(" %s=[%d..%d]", s.Processors[k].ID, r.From, r.To)
			}
			fmt.Println()
		}
		fmt.Println("\nexecution timeline (first 12 slices):")
		for j, e := range res.Timeline {
			if j >= 12 {
				fmt.Printf("  ... %d more\n", len(res.Timeline)-12)
				break
			}
			m := plan.Schedule.Profiles[e.Request].Model()
			fmt.Printf("  %-12s on %-9s %8.2fms → %8.2fms (slowdown %.2f×)\n",
				m.Name, s.Processors[e.Stage].ID,
				e.Start.Seconds()*1e3, e.End.Seconds()*1e3, e.Slowdown)
		}
	}

	// Serial MNN reference.
	profiles := plan.Schedule.Profiles
	serialSched, err := baseline.SerialMNN(s, profiles)
	if err != nil {
		return err
	}
	serial, err := pipeline.ExecuteContext(ctx, serialSched, pipeline.DefaultOptions())
	if err != nil {
		return err
	}

	if *ganttWidth > 0 {
		fmt.Println()
		fmt.Print(trace.Gantt(plan.Schedule, res, *ganttWidth))
	}

	fmt.Printf("\nlatency:            %8.2f ms\n", res.Makespan.Seconds()*1e3)
	fmt.Printf("throughput:         %8.2f inferences/s\n", res.Throughput())
	fmt.Printf("measured bubbles:   %8.2f ms\n", res.BubbleTime.Seconds()*1e3)
	fmt.Printf("peak memory:        %8.1f MB\n", float64(res.PeakMemoryBytes)/1e6)
	fmt.Printf("energy:             %8.2f J (%.2f J/inference)\n",
		res.EnergyJoules, res.EnergyPerInference())
	fmt.Printf("serial CPU latency: %8.2f ms  (speedup %.2f×, energy %.2f J)\n",
		serial.Makespan.Seconds()*1e3,
		serial.Makespan.Seconds()/res.Makespan.Seconds(),
		serial.EnergyJoules)

	if *traceOut != "" {
		data, err := trace.ChromeTrace(plan.Schedule, res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*traceOut, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome trace to %s\n", *traceOut)
	}
	if *htmlOut != "" {
		title := fmt.Sprintf("Hetero²Pipe on %s: %s", s.Name, *modelsFlag)
		page, err := trace.HTMLReport(title, plan.Schedule, res)
		if err != nil {
			return err
		}
		if err := os.WriteFile(*htmlOut, page, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote HTML report to %s\n", *htmlOut)
	}
	return waitServe()
}

// buildLogger maps a -log-level value to a text slog.Logger on stderr, or
// nil (logging disabled) for the empty string.
func buildLogger(level string) (*slog.Logger, error) {
	if level == "" {
		return nil, nil
	}
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "debug":
		lvl = slog.LevelDebug
	case "info":
		lvl = slog.LevelInfo
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", level)
	}
	return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl})), nil
}

// writeSpans dumps the span ring as an OTLP/JSON trace document.
func writeSpans(path string, rec *hetero2pipe.SpanRecorder, service string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := hetero2pipe.WriteOTLP(f, rec, service); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote OTLP spans to %s\n", path)
	return nil
}

// sloName renders the class governing frontier selection; the unset class
// falls back to latency-critical, matching Frontier.Select.
func sloName(slo core.SLOClass) string {
	if slo.Kind == core.SLOUnset {
		return core.SLOLatencyCritical.String()
	}
	return slo.String()
}

// printFrontier lists the Pareto frontier from -objective frontier, one line
// per non-dominated point, marking the point the -slo class selected.
func printFrontier(f *core.Frontier, selected *core.FrontierPoint, slo core.SLOClass) {
	fmt.Printf("Pareto frontier: %d non-dominated points\n", f.Size())
	for i := range f.Points {
		pt := &f.Points[i]
		mark := ""
		if selected != nil && pt.Candidate == selected.Candidate {
			mark = fmt.Sprintf("  ← selected (%s)", sloName(slo))
		}
		o := pt.Objective
		fmt.Printf("  %2d. makespan %8.2fms  throughput %6.2f req/s  energy %7.2fJ  peak %7.1fMB%s\n",
			i+1, o.Makespan.Seconds()*1e3, o.Throughput, o.EnergyJoules,
			float64(o.PeakMemoryBytes)/(1<<20), mark)
	}
}

// streamOutputs carries the artefacts requested on the command line into
// runStream and runFleet, with the registry and span ring they are written
// from.
type streamOutputs struct {
	report      bool
	metricsOut  string
	traceOut    string
	spansOut    string
	reqTraceOut string
	registry    *hetero2pipe.MetricsRegistry
	spans       *hetero2pipe.SpanRecorder
}

// runStream replays the models as a Poisson arrival stream with per-window
// planning and prints the online/degradation statistics.
func runStream(ctx context.Context, sys *hetero2pipe.System, models []*model.Model, degraded bool, gap time.Duration, objective core.ObjectiveMode, slo core.SLOClass, out streamOutputs) error {
	service := sys.SoC().Name
	requests := hetero2pipe.FleetPoissonArrivals(models, gap, 7, 1)
	// DeviceName keeps the SoC name on the request timelines.
	res, err := sys.RunStreamContext(ctx, requests, hetero2pipe.StreamConfig{DeviceName: service})
	if err != nil {
		return err
	}
	if out.spansOut != "" {
		if err := writeSpans(out.spansOut, out.spans, service); err != nil {
			return err
		}
	}
	if out.report {
		raw, err := res.Report.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(raw))
	}
	if out.metricsOut != "" {
		if err := writeMetrics(out.metricsOut, out.registry); err != nil {
			return err
		}
	}
	if out.traceOut != "" {
		data, err := hetero2pipe.StreamChromeTraceFromSpans(out.spans)
		if err != nil {
			return err
		}
		if err := os.WriteFile(out.traceOut, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("wrote Chrome stream trace to %s\n", out.traceOut)
	}
	if out.reqTraceOut != "" {
		if err := writeTimelines(out.reqTraceOut, res.Timelines); err != nil {
			return err
		}
	}
	fmt.Printf("online run: %d requests, mean gap %v\n", len(requests), gap)
	if objective == core.ObjectiveFrontier {
		fmt.Printf("objective:          frontier (default SLO %s)\n", sloName(slo))
	}
	fmt.Printf("makespan:           %8.2f ms\n", res.Makespan.Seconds()*1e3)
	fmt.Printf("mean sojourn:       %8.2f ms  (p95 %.2f ms)\n",
		res.MeanSojourn().Seconds()*1e3, res.P95Sojourn().Seconds()*1e3)
	fmt.Printf("planning windows:   %8d\n", res.Windows)
	fmt.Printf("cost cache:         %8d hits, %d misses\n", res.CacheHits, res.CacheMisses)
	if res.PlanCacheHits+res.PlanCacheMisses > 0 {
		fmt.Printf("plan cache:         %8d hits, %d misses\n", res.PlanCacheHits, res.PlanCacheMisses)
	}
	if degraded {
		fmt.Printf("events applied:     %8d\n", res.EventsApplied)
		fmt.Printf("replans:            %8d  (%d requests requeued)\n", res.Replans, res.Retried)
		fmt.Printf("plan retries:       %8d\n", res.PlanRetries)
		fmt.Printf("deadline misses:    %8d\n", res.DeadlineMisses)
		fmt.Println("\nwindows:")
		for i, ws := range res.WindowStats {
			mark := ""
			if ws.FrontierSize > 0 {
				mark = fmt.Sprintf("  [%s, %d-point frontier]", ws.SLO, ws.FrontierSize)
			}
			if ws.Interrupted {
				mark += "  ← interrupted"
			}
			fmt.Printf("  %2d. [%8.2fms %8.2fms] %d requests, %d done, %d requeued, %d events, %d retries%s\n",
				i+1, ws.Start.Seconds()*1e3, ws.End.Seconds()*1e3,
				ws.Requests, ws.Completed, ws.Requeued, ws.EventsApplied, ws.PlanRetries, mark)
		}
	}
	printSLOBudgets(sys.SLOBudgets())
	return nil
}

// runFleet shards a Poisson arrival stream (per-device decorrelated seeds)
// across the fleet and prints the sharded-serving statistics.
func runFleet(ctx context.Context, sys *hetero2pipe.System, models []*model.Model, gap time.Duration, out streamOutputs) error {
	fl := sys.Fleet()
	requests := hetero2pipe.FleetPoissonArrivals(models, gap, 7, len(fl.Devices()))
	res, err := sys.RunFleetContext(ctx, requests)
	if err != nil {
		return err
	}
	if out.spansOut != "" {
		if err := writeSpans(out.spansOut, out.spans, sys.SoC().Name); err != nil {
			return err
		}
	}
	if out.reqTraceOut != "" {
		if err := writeTimelines(out.reqTraceOut, res.Timelines); err != nil {
			return err
		}
	}
	if out.report {
		raw, err := res.Report.JSON()
		if err != nil {
			return err
		}
		fmt.Println(string(raw))
	}
	if out.metricsOut != "" {
		if err := writeMetrics(out.metricsOut, out.registry); err != nil {
			return err
		}
	}
	fmt.Printf("fleet run: %d requests over %d devices (%s policy), mean gap %v\n",
		len(requests), len(fl.Devices()), fl.Policy(), gap)
	fmt.Printf("makespan:           %8.2f ms\n", res.Makespan.Seconds()*1e3)
	fmt.Printf("mean sojourn:       %8.2f ms  (p95 %.2f ms)\n",
		res.Report.MeanSojournMS, res.Report.P95SojournMS)
	fmt.Printf("handoffs:           %8d\n", res.Handoffs)
	for _, d := range res.Report.PerDevice {
		state := "live"
		if d.Down {
			state = "down"
		}
		fmt.Printf("  %-6s %-16s %-4s %4d assigned, %4d completed, %d in / %d out handoffs\n",
			d.Device, d.SoC, state, d.Assigned, d.Completed, d.HandoffsIn, d.HandoffsOut)
	}
	printSLOBudgets(sys.SLOBudgets())
	return nil
}

// parseSLOBudgets parses the -slo-budget flag into one WithSLOBudget option
// per comma-separated class=target pair, where class is a named SLO class
// (latency-critical, balanced, battery-saver) and target is the tolerated
// deadline-miss fraction: the whole field must parse as a number in [0,1].
func parseSLOBudgets(s string) ([]hetero2pipe.Option, error) {
	if s == "" {
		return nil, nil
	}
	var opts []hetero2pipe.Option
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad -slo-budget entry %q (want class=target)", part)
		}
		class, err := hetero2pipe.ParseSLOClass(strings.TrimSpace(name))
		if err != nil {
			return nil, fmt.Errorf("-slo-budget: %w", err)
		}
		if class.Kind == core.SLOUnset {
			return nil, fmt.Errorf("-slo-budget: empty class in %q", part)
		}
		target, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -slo-budget target %q: %w", val, err)
		}
		if !(target >= 0 && target <= 1) {
			return nil, fmt.Errorf("-slo-budget target %g out of range [0,1]", target)
		}
		opts = append(opts, hetero2pipe.WithSLOBudget(class, target))
	}
	return opts, nil
}

// printSLOBudgets prints the per-class error-budget summary after a run (the
// textual form of the /slo endpoint). A nil monitor prints nothing.
func printSLOBudgets(mon *hetero2pipe.SLOMonitor) {
	if mon == nil {
		return
	}
	rep := mon.Report()
	if len(rep.Classes) == 0 {
		return
	}
	fmt.Println("\nSLO error budgets:")
	for _, c := range rep.Classes {
		fmt.Printf("  %-18s target %5.3f  missed %d/%d (%.3f)  burn %5.2fx  budget left %5.1f%%\n",
			c.Class, c.Target, c.Missed, c.Total, c.MissFraction,
			c.BurnRate, c.BudgetRemaining*100)
	}
}

// writeTimelines dumps the run's request timelines (phase events and sojourn
// decompositions) as indented JSON.
func writeTimelines(path string, tls []hetero2pipe.RequestTimeline) error {
	data, err := json.MarshalIndent(tls, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %d request timelines to %s\n", len(tls), path)
	return nil
}

// writeMetrics dumps the registry in Prometheus text exposition format.
func writeMetrics(path string, reg *hetero2pipe.MetricsRegistry) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := hetero2pipe.WritePrometheus(f, reg); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote metrics to %s\n", path)
	return nil
}

// offlineReport builds a run report for a one-shot (non-stream) run, where
// every request arrives at t=0 so sojourn equals completion time; its
// planner figures are the planning call's account.
func offlineReport(s *soc.SoC, acc core.Account, res *pipeline.Result, planWall time.Duration) *obs.RunReport {
	hits, misses := acc.CacheHits, acc.CacheMisses
	var slowSum, slowMax float64
	for _, e := range res.Timeline {
		slowSum += e.Slowdown
		if e.Slowdown > slowMax {
			slowMax = e.Slowdown
		}
	}
	var meanSlow float64
	if len(res.Timeline) > 0 {
		meanSlow = slowSum / float64(len(res.Timeline))
	}
	var ratio float64
	if hits+misses > 0 {
		ratio = float64(hits) / float64(hits+misses)
	}
	sojourns := append([]time.Duration(nil), res.Completions...)
	sort.Slice(sojourns, func(i, j int) bool { return sojourns[i] < sojourns[j] })
	var mean time.Duration
	if n := len(sojourns); n > 0 {
		var sum time.Duration
		for _, d := range sojourns {
			sum += d
		}
		mean = sum / time.Duration(n)
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return &obs.RunReport{
		SoC:           s.Name,
		Requests:      len(res.Completions),
		Completed:     len(res.Completions),
		MakespanMS:    ms(res.Makespan),
		MeanSojournMS: ms(mean),
		P95SojournMS:  ms(stats.NearestRank(sojourns, 95)),
		Planner: obs.PlannerReport{
			PlanWallMS:    ms(planWall),
			DPCells:       acc.DPCells,
			CacheHits:     hits,
			CacheMisses:   misses,
			CacheHitRatio: ratio,
		},
		Executor: obs.ExecutorReport{
			Slices:          len(res.Timeline),
			BubbleMS:        ms(res.BubbleTime),
			AdmissionStalls: res.AdmissionStalls,
			PeakMemoryBytes: res.PeakMemoryBytes,
			MeanSlowdown:    meanSlow,
			MaxSlowdown:     slowMax,
		},
	}
}

// runComparison executes every scheme over the same requests and prints the
// Fig. 7-style side-by-side table.
func runComparison(ctx context.Context, s *soc.SoC, models []*model.Model) error {
	profiles := make([]*profile.Profile, len(models))
	for i, m := range models {
		p, err := profile.New(s, m)
		if err != nil {
			return err
		}
		profiles[i] = p
	}
	type scheme struct {
		name  string
		build func() (*pipeline.Schedule, error)
	}
	schemes := []scheme{
		{"MNN (serial)", func() (*pipeline.Schedule, error) { return baseline.SerialMNN(s, profiles) }},
		{"Pipe-it", func() (*pipeline.Schedule, error) { return baseline.PipeIt(s, profiles) }},
		{"Band", func() (*pipeline.Schedule, error) { return baseline.Band(s, profiles) }},
		{"H²P (No C/T)", func() (*pipeline.Schedule, error) {
			pl, err := core.NewPlanner(s, core.NoCTOptions())
			if err != nil {
				return nil, err
			}
			plan, _, err := pl.PlanProfiles(ctx, profiles)
			if err != nil {
				return nil, err
			}
			return plan.Schedule, nil
		}},
		{"Hetero²Pipe", func() (*pipeline.Schedule, error) {
			pl, err := core.NewPlanner(s, core.DefaultOptions())
			if err != nil {
				return nil, err
			}
			plan, _, err := pl.PlanProfiles(ctx, profiles)
			if err != nil {
				return nil, err
			}
			return plan.Schedule, nil
		}},
	}
	fmt.Printf("%s, %d requests:\n", s.Name, len(models))
	fmt.Printf("%-14s %12s %14s %10s %12s\n", "scheme", "latency", "throughput", "energy", "peak mem")
	for _, sc := range schemes {
		sched, err := sc.build()
		if err != nil {
			fmt.Printf("%-14s %12s\n", sc.name, "n/a ("+err.Error()+")")
			continue
		}
		res, err := pipeline.ExecuteContext(ctx, sched, pipeline.DefaultOptions())
		if err != nil {
			return err
		}
		fmt.Printf("%-14s %10.1fms %11.2f/s %9.2fJ %10.1fMB\n",
			sc.name, res.Makespan.Seconds()*1e3, res.Throughput(),
			res.EnergyJoules, float64(res.PeakMemoryBytes)/1e6)
	}
	return nil
}
