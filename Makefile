GO ?= go

.PHONY: check fmt build vet test race diff degrade obs serve-test fleet reqtrace api api-update perfbench-check bench bench-exec bench-smoke bench-diff bench-miss fuzz fuzz-exec fuzz-degrade fuzz-fleet fuzz-parse fuzz-sweep fuzz-dp fuzz-batch fuzz-events exec-pool

## check: the tier-1 gate — everything a PR must keep green. race runs every
## test of the module once, under the race detector; the named suites below
## (diff, degrade, obs, serve-test, fleet, reqtrace, exec-pool) are subsets
## of it, kept as targets for running one area alone, so check does not run
## them again.
check: fmt vet build race api perfbench-check bench-smoke bench-exec

## fmt: fail when gofmt would reformat, or cannot parse, a Go file git
## tracks or would add. The list comes from git, so the ignored build
## copies under .bench_build/ never count; perfbench's files are covered,
## and only read.
fmt:
	@out=$$(git ls-files -z -c -o --exclude-standard '*.go' | xargs -0 -r gofmt -l 2>&1); \
	if [ -n "$$out" ]; then echo "gofmt would reformat:"; echo "$$out"; exit 1; fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -count=1 ./...

## diff: the planner-equivalence suite — differential tests proving the
## parallel planning engine produces byte-identical plans to the sequential
## planner, the candidate sweep byte-identical plans and frontiers to the
## kept reference sweep (on fresh planners, and on one warm planner through
## seeded sequences of repeats, permutations, degradation events and a
## return to nominal), the Algorithm-1 cell search identical cells to the
## kept reference scan, the batch-latency curves identical latencies and
## alignment batches to the kept per-layer loop and scan, light-request
## coalescing identical groups to the kept name-bucket reference (also from
## one planner across degradation events), DP cell counts independent of
## the worker count, the 20-run determinism golden, the cost-cache unit
## tests, the plan-cache entry shared by both objectives, the allocation
## budget of a plan-cache hit, profiles re-assembled after an event
## answering every query like a cold build over a shared model-level half,
## incremental replans across episodes that revisit earlier SoC states
## (byte-identical plans; at each revisit of a held state no DP cell, no
## cost-cache miss and that state's profiles), the cost cache's retention
## bound, the plan cache keyed on the SoC state (a return to a planned state
## hits), the least-sojourn router's estimate memo keyed on it (one
## estimate per device, state and model however often the state flips),
## the allocation budget of a plan-cache miss (every variant priced in
## pooled scratch), plans from a miss owning their memory, and the exported
## tail search leaving its input schedule untouched.
diff:
	$(GO) test -race -count=1 -run 'TestDifferential|TestSweepReference|TestCellSearchReference|TestBatchCurveReference|TestCoalesceLightReference|TestPlanDeterminismGolden|TestCostCache|TestPlanCacheFrontierCoexistence|TestPlanCacheHitAllocBudget|TestPlanMissAllocBudget|TestPlanMissOwnsItsPlans|TestOptimizeTailLeavesInputUntouched|TestPlanCacheStateKey|TestPlanCacheRevisitHit|TestLeastSojournMemoKeysOnState|TestStreamCostCacheReuse|TestStreamParallelismInvariant|TestExhaustiveParallelMatchesSequential|TestReassembleReference' \
		./internal/core/ ./internal/stream/ ./internal/baseline/ ./internal/soc/ ./internal/profile/ ./internal/fleet/

## degrade: the degradation-runtime suite under the race detector — event
## injection, the SoC state identity (kept by no-op events, moved by every
## state change, restored by a return), re-measuring only the changed
## processors' tables, replan/retry/backoff and cancellation paths across
## soc, stream and the facade, and the rejection of derating states whose
## combined latency factor is not finite.
degrade:
	$(GO) test -race -count=1 -run 'Degrad' ./internal/soc/ ./internal/stream/ .

## obs: the observability suite under the race detector — metrics registry
## concurrency, run-report/Result equivalence, window spans against the
## window stats, the span-sourced stream Chrome trace (CLI and facade), the
## scheduler/executor accounting regression tests, and the per-call planner
## account: a plan span's cost-cache traffic (its profile lookups included)
## and two stream runs sharing one planner each reporting only their own
## planning.
obs:
	$(GO) test -race -count=1 -run Obs ./internal/obs/ ./internal/pipeline/ ./internal/core/ ./internal/stream/ ./internal/trace/ ./cmd/h2pipe/ ./cmd/benchjson/ .

## serve-test: the live-observability suite under the race detector — the
## HTTP server e2e (healthz/readyz/metrics/windows/SSE/pprof/spans), the
## span tracer and ring, the window feed, and the span→Chrome-trace tests:
## byte equality with the goldens in internal/trace/testdata and a typed
## error when the ring wrapped.
serve-test:
	$(GO) test -race -count=1 -run 'TestServeObs|TestSpan|TestAttr|TestWriteOTLP|TestFeed' \
		./internal/obs/ ./internal/stream/ ./internal/trace/ .

## fleet: the sharded-serving suite under the race detector — the 1-device
## Device-extraction differential, router policies and the consistent-hash
## ring, the policy stability check (every policy's p99 sojourn within 4× of
## least-sojourn's at 12 req/s), least-sojourn never routing a model to a
## device that cannot run it, graceful halt + failover/handoff accounting,
## failover routing in device order (identical Route sequences and results
## over fresh fleets, with the least-sojourn policy and two devices halting
## at once), the N-device concurrent obs-stress run (shared registry, span
## ring, feed fan-out, blocking subscriber), per-device labeled metrics, and
## the /fleet endpoint across the library facade and the CLI.
fleet:
	$(GO) test -race -count=1 -run 'TestFleet|TestDifferentialFleet|TestPolicy|TestLeastSojourn|TestDeviceSeed|TestDeviceRun|TestStreamHalt|TestStreamHandoff|TestObsWithLabels|TestObsPrometheusLabeled|TestRunFleet' \
		./internal/fleet/ ./internal/stream/ ./internal/obs/ ./cmd/h2pipe/ .

## reqtrace: the request-tracing suite under the race detector — trace-ID
## scheme and flight-recorder store, the sojourn-decomposition sum invariant
## across interrupt/requeue/backoff/halt/handoff paths, trace survival
## through fleet failover stitching (one stored timeline per fleet request,
## and one deadline verdict on device results, SLO monitor and timelines),
## SLO error-budget burn rates against the labeled deadline-miss counters,
## and the /requests and /slo endpoints across the internal server and the
## library facade.
reqtrace:
	$(GO) test -race -count=1 -run 'RequestTrace|SLOBudget|Decomp' \
		./internal/stream/ ./internal/fleet/ ./internal/obs/ .

## api: the public-API gate — regenerate the facade's exported surface and
## diff it against the committed api.txt baseline. Fails on any unreviewed
## public-API change; when the change is intentional, run `make api-update`
## and commit the new baseline alongside the code.
api:
	@$(GO) run ./cmd/apidump . > api.txt.tmp
	@diff -u api.txt api.txt.tmp || \
		(rm -f api.txt.tmp; echo "public API changed: review the diff above, then run 'make api-update' to accept"; exit 1)
	@rm -f api.txt.tmp

## api-update: accept an intentional public-API change by regenerating the
## committed baseline.
api-update:
	$(GO) run ./cmd/apidump . > api.txt

## perfbench-check: vet and test the nested perfbench module, which the
## root's ./... never reaches, so that a change to an API the benchmark
## calls fails here rather than only in the benchmark's own run. Neither
## command leaves a file under perfbench/.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 ./...

## bench: five interleaved repetitions with allocation stats of the root,
## executor, planner-core, profile and fleet benchmarks (internal/core holds
## BenchmarkPartitionParametric, the DP's test-side contender;
## internal/profile holds BenchmarkProfileReassemble, one model's
## re-assembly after an event stales one processor's table; internal/fleet
## holds BenchmarkFleetPolicies, each routing policy on the stability
## workload with its simulated sojourn p50 and p99), archived as
## machine-readable JSON for regression tracking under the first free name
## of BENCH_<date>.json, BENCH_<date>b.json, BENCH_<date>c.json, …, so an
## existing archive is never overwritten. Rows carry no package, so a
## benchmark keeps its ledger name when it moves between these packages.
bench:
	@f=; for s in '' b c d e f g h i j k l m n o p q r s t u v w x y z; do \
		c=BENCH_$$(date +%Y-%m-%d)$$s.json; [ -e "$$c" ] || { f=$$c; break; }; \
	done; [ -n "$$f" ] || { echo "bench: every archive name for today is taken" >&2; exit 1; }; \
	echo "bench: writing $$f"; \
	$(GO) test -bench . -benchmem -count=5 -run xxx . ./internal/pipeline/ ./internal/core/ ./internal/profile/ ./internal/fleet/ | $(GO) run ./cmd/benchjson | tee "$$f"

## exec-pool: the pooled-executor correctness gate under the race detector —
## the pooled-vs-unpooled differential over randomized schedules, the
## concurrent Execute stress sharing the scratch pool, the tight-memory
## admission sweep, Search.Price against Execute on the same corpus (costs
## and cutoff probes), a Search re-measuring random replaced rows against a
## fresh Search and Execute, and the steady-state allocation budgets of both.
exec-pool:
	$(GO) test -race -count=1 -run 'TestDifferentialExecScratch|TestExecScratch|TestExecutorAllocBudget|TestPrice' ./internal/pipeline/

## bench-exec: one quick -benchmem pass of the executor benchmarks (pooled
## steady state, contention-free fast path, planner-shaped small schedules
## executed and priced on a Search, pool-sharing parallel execution, and the
## unpooled reference twin); part of `make check` so the hot path's
## allocation profile stays visible.
bench-exec:
	$(GO) test -run xxx -bench 'BenchmarkExecute(SteadyState|NoContention|Small|Parallel)|BenchmarkSearchPriceSmall|BenchmarkReferenceExecute' -benchmem -benchtime 100x -count=1 ./internal/pipeline/

## bench-smoke: one quick pass of the stream serving benchmarks (steady
## state and churn, plan cache on and off, and the Appendix-D batched
## stream) — a fast check that the online serving paths, batching included,
## still run end to end; part of `make check`.
bench-smoke:
	$(GO) test -run xxx -bench 'BenchmarkStream(SteadyState|Churn|Batched)' -benchtime 1x -count=1 .

## bench-diff: guard against performance regressions — compare the two most
## recent BENCH_*.json archives (override with OLD=/NEW=) and fail on a
## >10% ns/op, bytes/op or allocs/op regression.
bench-diff:
	$(eval OLD ?= $(shell ls BENCH_*.json | sort | tail -2 | head -1))
	$(eval NEW ?= $(shell ls BENCH_*.json | sort | tail -1))
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)

## bench-miss: the plan-cache miss path's layer rows. The replan pair after
## a single-processor throttle — throttling the last-capability processor
## resumes every model's DP at its last row (Incremental), throttling the
## first refills every row (Full); the Incremental row's ns/op should sit
## well below the Full row's. Then a full sweep over a warm cost cache
## (PlanModelsWarmCache), the tail search alone (OptimizeTail) and one
## priced run on a Search (SearchPriceSmall).
bench-miss:
	$(GO) test -run xxx -bench 'BenchmarkReplanMiss(Incremental|Full)$$|BenchmarkPlanModelsWarmCache$$|BenchmarkOptimizeTail$$|BenchmarkSearchPriceSmall$$' \
		-benchmem -count=5 . ./internal/core/ ./internal/pipeline/

## fuzz: a short run of the parallel-vs-sequential differential fuzz target.
fuzz:
	$(GO) test -run xxx -fuzz FuzzParallelPlannerDifferential -fuzztime 30s ./internal/core/

## fuzz-exec: short fuzz of the pooled-executor differential — any fuzzed
## (seed, request count, option bits) must produce a Result byte-identical
## to the unpooled reference executor, including MemTrace, PeakMemoryBytes
## and AdmissionStalls, and a Search over the schedule must price random
## row replacements like a fresh Search and Execute.
fuzz-exec:
	$(GO) test -run xxx -fuzz FuzzExecScratch -fuzztime 30s ./internal/pipeline/

## fuzz-degrade: short fuzz of the degradation-aware stream runtime, seeded
## with a processor going offline mid-window.
fuzz-degrade:
	$(GO) test -run xxx -fuzz FuzzStreamDegradation -fuzztime 30s ./internal/stream/

## fuzz-fleet: short fuzz of the router's sharding invariants — every request
## digest routes to exactly one live device, and removing a device moves only
## the keys it owned — then of whole fleet runs under fuzzed failures (2–4
## devices, any policy, any devices losing every processor at any instant,
## 1–40 requests, any deadline): two fresh fleets give identical results,
## every request completes exactly once or the run fails with every device
## down, the trace store holds one timeline per request, every
## decomposition sums to its sojourn, and device, SLO-monitor and timeline
## deadline-miss counts agree.
fuzz-fleet:
	$(GO) test -run xxx -fuzz FuzzRouterShard -fuzztime 30s ./internal/fleet/
	$(GO) test -run xxx -fuzz FuzzFleetFailover -fuzztime 30s ./internal/fleet/

## fuzz-dp: short fuzz of the Algorithm-1 cell search against the kept
## reference scan — any fuzzed chain (zero-time layers, a huge boundary
## copy, NPU-unsupported islands) on any preset, nominal, throttled or with
## a processor offline, must search every DP cell to the same split index
## and value bits.
fuzz-dp:
	$(GO) test -run xxx -fuzz FuzzCellSearch -fuzztime 30s ./internal/core/

## fuzz-batch: short fuzz of light-request coalescing — any fuzzed window
## (zoo models, pre-batched variants, pointer-distinct clones, same-named
## models of a different structure) coalesced by a planner on any preset,
## then again after a fuzzed state change (none, the reference processor
## offline or throttled) applied to its SoC, must put each request in one
## group of structurally identical requests, and must group
## exactly like the kept name-bucket reference whenever same-named requests
## are identical.
fuzz-batch:
	$(GO) test -run xxx -fuzz FuzzCoalesceLight -fuzztime 30s ./internal/core/

## fuzz-events: short fuzz of the degradation-event parser — any fuzzed
## event list must parse without panicking, and every event it returns must
## pass Validate, carry a finite factor when its kind takes one, and
## re-parse from its String form to an identical event.
fuzz-events:
	$(GO) test -run xxx -fuzz FuzzParseEvents -fuzztime 30s ./internal/soc/

## fuzz-parse: short fuzz of the facade's text parsers — no input panics
## ParsePolicy, ParseSLOClass or ParseTraceID, a rejected policy or SLO
## class wraps ErrUnknownPolicy or ErrUnknownSLOClass, and every accepted
## policy, SLO class and nonzero trace ID re-parses from its String form to
## itself — then of the observability server's /requests and /windows
## query parameters: no raw query panics the handler or draws a status
## other than 200, 400 or 404, a 400 comes exactly for a rejected count,
## and every 200 body decodes into its documented payload. Not part of
## `make check`.
fuzz-parse:
	$(GO) test -run xxx -fuzz '^FuzzParsePolicy$$' -fuzztime 30s .
	$(GO) test -run xxx -fuzz '^FuzzParseSLOClass$$' -fuzztime 30s .
	$(GO) test -run xxx -fuzz '^FuzzParseTraceID$$' -fuzztime 30s .
	$(GO) test -run xxx -fuzz '^FuzzServeQuery$$' -fuzztime 30s ./internal/obs/server/

## fuzz-sweep: short fuzz of the candidate sweep against the kept reference
## sweep — any fuzzed window (zoo, batched, synthetic chains), option bits
## and parallelism must give a plan and a frontier byte-identical to it.
fuzz-sweep:
	$(GO) test -run xxx -fuzz FuzzSweepReference -fuzztime 30s ./internal/core/
