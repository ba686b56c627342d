// Command perfbench is the serving benchmark: it runs open-loop workloads
// through the public run calls, checks every output, and prints plan-quality
// and scheduler-overhead metrics, end to end or (with --trace 1) per layer.
//
// From the repository root:
//
//	bash perfbench/run.sh --workload mixed-poisson --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload all --seed 1
//	bash perfbench/run.sh compare OLD_DIR NEW_DIR
//
// Each run writes its result, stamped with the machine and the code it
// measured, to --out; traced runs also write their spans there.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"hetero2pipe/internal/model"
	"hetero2pipe/internal/profile"
	"hetero2pipe/internal/soc"
)

// defaultSeconds is the time budget of one benchmark run.
const defaultSeconds = 15

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	if len(args) > 0 && args[0] == "compare" {
		return compareMain(args[1:], stdout)
	}
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run: "+strings.Join(names, ", ")+", or all")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", defaultSeconds, "time budget for the timed runs, in seconds")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from traced runs, 0 end-to-end metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for result and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	selected := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want %s or all)\n", *name, strings.Join(names, ", "))
			return 2
		}
		selected = []workload{w}
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	mach := pinProcs()
	wd, _ := os.Getwd()
	code := commit(wd)
	budget := time.Duration(*seconds * float64(time.Second))
	allCorrect := true
	for _, w := range selected {
		res, err := bench(w, *seed, budget, *trace == 1, mach.Parallelism, *out)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			return 1
		}
		res.Provenance = provenance{
			Machine: mach, Commit: code, Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *trace == 1,
		}
		path := filepath.Join(*out, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace))
		if err := writeJSON(path, res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		printResult(stdout, res)
		allCorrect = allCorrect && res.Correct
	}
	if !allCorrect {
		return 1
	}
	return 0
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the line a benchmark run ends with.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result is the record a run writes to its result file.
type result struct {
	Provenance provenance `json:"provenance"`
	summary
	// Reps and TracedReps count the timed and traced runs behind the
	// medians.
	Reps       int    `json:"reps"`
	TracedReps int    `json:"traced_reps,omitempty"`
	SpansFile  string `json:"spans_file,omitempty"`
}

func printResult(w io.Writer, r *result) {
	p := r.Provenance
	m := p.Machine
	fmt.Fprintf(w, "# perfbench %s seed=%d trace=%t reps=%d traced_reps=%d commit=%s\n",
		p.Workload, p.Seed, p.Trace, r.Reps, r.TracedReps, p.Commit)
	fmt.Fprintf(w, "# machine %s/%s cpu=%q nproc=%d gomaxprocs=%d parallelism=%d %s\n",
		m.GOOS, m.GOARCH, m.CPU, m.NProc, m.GOMAXPROCS, m.Parallelism, m.GoVersion)
	defs := endToEnd
	if p.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		line := fmt.Sprintf("%-32s %14.6g %-6s", d.name, r.Metrics[d.name].Value, d.unit)
		if d.target != "" {
			line += "  -> " + d.target
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "# correct=%t attempted=%d failed=%d\n", r.Correct, r.Attempted, r.Failed)
	line, _ := json.Marshal(r.summary)
	fmt.Fprintln(w, string(line))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// bench measures one workload. Every timed run gets a freshly built and
// warmed system; the time budget bounds how many run (at least one per
// variant). Host metrics report medians over the runs, plan-wall
// percentiles pool every window of every run so that a hiccup in one run
// cannot move them. A traced measurement spends half the budget on
// untraced runs, for the tracing overhead, and half on traced ones.
// Simulated metrics must come out bit-identical from every run.
func bench(w workload, seed uint64, budget time.Duration, traced bool, par int, outDir string) (*result, error) {
	var chk checker
	start := time.Now()
	timed := budget
	if traced {
		timed = budget / 2
	}
	var (
		samples             []simSample // one per variant, from its first run
		host                = make(map[string][]float64)
		planWalls           []float64
		setups, builds      []float64
		gcCycles, gcPauseMS []float64
		reps                int
	)
	for ; reps < w.variants || time.Since(start) < timed; reps++ {
		v := reps % w.variants
		in, setupDur, buildMS, err := setup(w, w.variantSeed(seed, v), par, nil)
		if err != nil {
			return nil, err
		}
		runtime.GC()
		o, err := in.run()
		if err != nil {
			return nil, fmt.Errorf("run %d: %w", reps, err)
		}
		chk.checkOutcome(o)
		if s := sampleOf(o); reps < w.variants {
			samples = append(samples, s)
			chk.checkTail("sojourns", o.completed())
			chk.checkTail("plan walls", len(o.windows()))
		} else if s.print != samples[v].print {
			chk.fail("run %d: simulated outcome of variant %d differs from its first run", reps, v)
		}
		for k, val := range hostMetrics(o) {
			host[k] = append(host[k], val)
		}
		planWalls = append(planWalls, planWallsUS(o)...)
		setups = append(setups, setupDur.Seconds())
		builds = append(builds, buildMS)
		kreq := float64(o.sent()) / 1000
		gcCycles = append(gcCycles, float64(o.gcCycles)/kreq)
		gcPauseMS = append(gcPauseMS, durMS(o.gcPause))
	}
	res := &result{Reps: reps}
	values := make(map[string]float64)
	if !traced {
		for k, v := range simMetrics(samples, w.limit) {
			values[k] = v
		}
		for k, vs := range host {
			values[k] = median(vs)
		}
		values["plan_wall_us_p50"] = percentile(planWalls, 50)
		values["plan_wall_us_p99"] = percentile(planWalls, 99)
		values["setup_s"] = median(setups)
		values["peak_rss_mb"] = peakRSSMB()
		c, err := capacityRPS(w, seed, par, &chk)
		if err != nil {
			return nil, err
		}
		values["capacity_rps"] = c
	} else {
		layers := make(map[string][]float64)
		var tracedRPS []float64
		var last *spanIndex
		for ; res.TracedReps < 1 || time.Since(start) < budget; res.TracedReps++ {
			v := res.TracedReps % w.variants
			pr := newProbe()
			in, _, _, err := setup(w, w.variantSeed(seed, v), par, pr)
			if err != nil {
				return nil, err
			}
			windowsBefore := registryTotal(pr.reg, "stream_windows_total")
			runtime.GC()
			o, err := in.run()
			if err != nil {
				return nil, fmt.Errorf("traced run %d: %w", res.TracedReps, err)
			}
			chk.checkOutcome(o)
			chk.checkTraced(o, pr, windowsBefore)
			if fingerprint(o) != samples[v].print {
				chk.fail("traced run %d: simulated outcome of variant %d differs from its untraced run", res.TracedReps, v)
			}
			last = indexSpans(pr.spans.Spans(), o.rootID)
			for k, val := range layerMetrics(o, last, in.sc) {
				layers[k] = append(layers[k], val)
			}
			tracedRPS = append(tracedRPS, float64(o.sent())/o.wall.Seconds())
		}
		for k, vs := range layers {
			values[k] = median(vs)
		}
		values["profile.build_ms"] = median(builds)
		values["obs.traced_overhead_frac"] = 1 - median(tracedRPS)/median(host["host_rps"])
		values["runtime.gc_cycles_per_kreq"] = median(gcCycles)
		values["runtime.gc_pause_ms"] = median(gcPauseMS)
		res.SpansFile = filepath.Join(outDir, fmt.Sprintf("%s-seed%d-spans.jsonl", w.name, seed))
		if err := writeSpans(res.SpansFile, last); err != nil {
			return nil, err
		}
	}
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res.Metrics = make(map[string]metricValue, len(defs))
	for _, d := range defs {
		res.Metrics[d.name] = metricValue{Value: values[d.name], Unit: d.unit}
	}
	res.Attempted, res.Failed = chk.attempted, chk.failed
	res.Correct = chk.failed == 0
	return res, nil
}

// capacityRPS runs the first input variant at each ladder rate, simulated
// only, and returns the realised rate of the highest one that keeps its p99
// within the limit without a growing backlog.
func capacityRPS(w workload, seed uint64, par int, chk *checker) (float64, error) {
	var rungs []rung
	for _, rate := range w.ladder {
		in, err := newInstance(w.gen(w.variantSeed(seed, 0), rate), par, nil)
		if err != nil {
			return 0, err
		}
		o, err := in.run()
		if err != nil {
			return 0, fmt.Errorf("capacity ladder at %g req/s: %w", rate, err)
		}
		chk.checkOutcome(o)
		rungs = append(rungs, ladderRung(o))
	}
	return capacity(rungs, w.limit), nil
}

// setup builds one run's system from nothing: it generates the arrivals,
// times profile.New for every distinct model × SoC pair, constructs the
// system and warms its caches. Its duration is one setup_s sample.
func setup(w workload, seed uint64, par int, pr *probe) (*instance, time.Duration, float64, error) {
	start := time.Now()
	sc := w.gen(seed, w.nominal)
	buildMS, err := profileBuild(sc)
	if err != nil {
		return nil, 0, 0, err
	}
	in, err := newInstance(sc, par, pr)
	if err != nil {
		return nil, 0, 0, err
	}
	if err := in.warm(); err != nil {
		return nil, 0, 0, err
	}
	return in, time.Since(start), buildMS, nil
}

// profileBuild times profile.New for every distinct model on every device
// SoC of the scenario, in milliseconds.
func profileBuild(sc scenario) (float64, error) {
	seen := make(map[*model.Model]bool)
	var models []*model.Model
	for _, r := range sc.requests {
		if !seen[r.Model] {
			seen[r.Model] = true
			models = append(models, r.Model)
		}
	}
	start := time.Now()
	for _, d := range sc.devices {
		s := soc.PresetByName(d.preset)
		for _, m := range models {
			if _, err := profile.New(s, m); err != nil {
				return 0, fmt.Errorf("profiling %s on %s: %w", m.Name, d.preset, err)
			}
		}
	}
	return durMS(time.Since(start)), nil
}

// peakRSSMB is the process's peak resident set in MiB (VmHWM on Linux; the
// memory obtained from the OS elsewhere).
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
