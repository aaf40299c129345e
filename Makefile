GO ?= go
GOFMT ?= gofmt

.PHONY: build test race allocs vet fmt-check errcheck examples fuzz-smoke crossval golden golden-degraded golden-scenario golden-contention golden-machine-degraded golden-update spec-validate cachepass race-machine race-pool bench bench-step bench-step-smoke bench-smoke bench-digest bench-check ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -timeout 30m ./...

# allocs runs the zero-allocation and allocation-scaling tests (every
# test whose name contains "Alloc") without the race detector: the step
# tier's periodic cycle, a step cell's failure-free prefix (at most one
# allocation to record, none to restart from), the metered sweep (reused registries and
# recycled frames: no allocation per run), and the machine's arbiter
# churn and whole fault-armed runs. Under -race sync.Pool drops Puts at
# random, so the tests that rely on the engine and node-table pools skip
# themselves in `make race` and `make race-machine` and are gated here.
allocs:
	$(GO) test -count=1 -run Alloc ./internal/...

vet:
	$(GO) vet ./...

# fmt-check fails (and lists the offenders) if any file is not gofmt-clean.
fmt-check:
	@fmtout="$$($(GOFMT) -l .)"; \
	if [ -n "$$fmtout" ]; then \
		echo "gofmt needed on:"; echo "$$fmtout"; exit 1; \
	fi

# crossval races the tier cross-validation: all three simulation tiers
# (app-level reference, node-granular, step-based tier-0) on matched
# platform configs and seeds, under the race detector. The pattern also
# picks up TestCrossValidationStepBitIdentity in internal/stepsim — the
# full five-model × platform × seed bit-identity matrix against crmodel —
# and TestCrossValidationSweepCells in internal/experiments, which runs
# every seed of every sweeping experiment's cells (and two seeds of each
# example spec cell) on both the step tier and the app reference and
# fails on any result or metrics difference.
crossval:
	$(GO) test -run TestCrossValidation -race ./...

# golden replays every registered experiment at the pinned regression
# parameters and compares each table cell against the committed goldens.
golden:
	$(GO) test -race -timeout 30m -count=1 -run TestGolden ./internal/experiments

# golden-degraded gates just the degraded-platform experiment: the
# fault-injection golden is the regression net for the injector's
# seed-derivation hygiene (a stray draw anywhere reshuffles every cell).
golden-degraded:
	$(GO) test -race -timeout 30m -count=1 -run 'TestGolden/degraded' ./internal/experiments

# golden-scenario gates just the scenario experiment: the committed
# golden pins every embedded spec's cells, so a drift in spec parsing,
# normalization, cohort scaling, or trace replay shows up as a cell diff.
golden-scenario:
	$(GO) test -race -timeout 30m -count=1 -run 'TestGolden/scenario' ./internal/experiments

# golden-contention gates just the multi-tenant contention experiment:
# its golden pins per-tenant slowdown/queue-wait/starvation under the
# shared bandwidth arbiter, so any drift in arbiter pricing, admission
# order, or the offset-start clock identity shows up as a cell diff.
golden-contention:
	$(GO) test -race -timeout 30m -count=1 -run 'TestGolden/contention' ./internal/experiments

# golden-machine-degraded gates the machine-scope fault-domain
# experiment: its golden pins the brownout repricing schedule, the
# drain-outage requeue order, the crash/requeue/give-up lifecycle, and
# the starvation-watchdog escalations — a stray draw on any machine
# fault substream reshuffles every cell.
golden-machine-degraded:
	$(GO) test -race -timeout 30m -count=1 -run 'TestGolden/machine-degraded' ./internal/experiments

# spec-validate checks every committed scenario spec and failure trace
# (examples/ plus the specs embedded in the scenario experiment) through
# the same strict load/validate path pckpt-sim -spec uses.
spec-validate:
	$(GO) run ./cmd/speccheck ./examples ./internal/experiments/specs

# golden-update regenerates testdata/golden after an intentional
# behaviour change: the experiments' cells and the stdout goldens of
# cmd/experiments and cmd/pckpt-sim (which only an amd64 GOAMD64=v1
# build may rewrite). Review the diff before committing.
golden-update:
	$(GO) test ./internal/experiments ./cmd/experiments ./cmd/pckpt-sim -count=1 -run TestGolden -update

# cachepass runs the cross-process cold-then-warm result-cache check:
# the same test twice against one shared cache directory — the first
# invocation simulates and populates, the second must resolve every
# configuration from disk and match an uncached reference bit-for-bit.
cachepass:
	@dir=$$(mktemp -d); \
	$(GO) test -race -timeout 30m -count=1 -run TestCacheColdWarm ./internal/experiments -cachedir $$dir && \
	$(GO) test -race -timeout 30m -count=1 -run TestCacheColdWarm ./internal/experiments -cachedir $$dir; \
	rc=$$?; rm -rf $$dir; exit $$rc

# bench runs the full benchmark suite (paper tables/figures plus the
# sim/queue/nodesim/stepsim substrate micro-benchmarks) and writes the
# parsed results as a machine-readable artefact; see EXPERIMENTS.md for
# the schema and how to compare against the committed baseline.
BENCH_OUT ?= BENCH_PR9.json
BENCH_LABEL ?= PR9
bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./... | $(GO) run ./cmd/benchfmt -label $(BENCH_LABEL) -out $(BENCH_OUT)

# bench-step runs just the step-vs-process headroom comparisons: the
# step engine's hot-path/interrupt micro-benches next to the process
# engine's equivalents (the events/sec ratio is the committed BENCH_PR7
# claim), plus the episode-machinery pair behind the step-tier default
# for P1/P2 (the commits/sec ratio is the committed BENCH_PR8 claim)
# and the end-to-end P1/P2 step benches.
bench-step:
	$(GO) test -bench 'StepHotPath|StepInterrupt|StepEpisodeDrain|StepSimulateP' -run=^$$ ./internal/stepsim
	$(GO) test -bench 'WaitHotPath|InterruptHeavy' -run=^$$ ./internal/sim
	$(GO) test -bench 'EpisodeProcess' -run=^$$ ./internal/pckpt

# bench-step-smoke is the one-iteration variant of bench-step: the
# episode benches (both engines) and the tier-0 micro-benches run once
# each. ci does not call it, since bench-smoke already runs every one of
# them once; it remains for checking the headroom pairs alone.
bench-step-smoke:
	$(GO) test -bench 'StepHotPath|StepInterrupt|StepEpisodeDrain|StepSimulateP' -benchtime=1x -run=^$$ ./internal/stepsim
	$(GO) test -bench 'WaitHotPath|InterruptHeavy' -benchtime=1x -run=^$$ ./internal/sim
	$(GO) test -bench 'EpisodeProcess' -benchtime=1x -run=^$$ ./internal/pckpt

# bench-smoke runs one iteration of every benchmark (the stepsim
# micro-benches included) through the same parser, so neither the
# benchmarks nor the harness can rot unnoticed.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x -benchmem -run=^$$ ./... | $(GO) run ./cmd/benchfmt -out /dev/null >/dev/null

# bench-digest runs every workload of the repository benchmark once at
# seed 42 and default sizes (about 12 s). bench/run.sh exits non-zero
# when any output digest differs from bench/reference.json or a call
# fails, so a change that moves a simulated result fails the gate.
bench-digest:
	bash bench/run.sh -seconds 0 -reps 1

# bench-check vets the benchmark module and runs its own tests, among
# them TestJudge and TestBenchmarkJSONMatchesProgram. bench/ is a module
# of its own, so the root's `go vet ./...` and `go test ./...` skip it.
bench-check:
	cd bench && $(GO) vet . && $(GO) test .

# race-machine is a focused race pass over the shared-machine layer:
# the arbiter, admission plane, fault driver, and SimulateN's cross-run
# worker pool. The machine tests include a DeepEqual worker-determinism
# sweep over a healthy and a fault-armed cohort: each worker reuses
# pooled tenant node tables in its own order, so stale pooled state
# shows up as a difference. The allocation tests skip here (make allocs
# runs them).
race-machine:
	$(GO) test -race -timeout 30m -count=1 ./internal/machine

# race-pool repeats the sweep pool's tests and the cell plan's
# concurrent tests ten times under the race detector. Workers claim
# indices off a shared cursor and every worker asks the plan's stop
# check, so an ordering bug there shows in some interleavings only, which
# one raced pass may miss. The same holds for a step cell's first runs on
# several workers: one records the cell's failure-free prefix while the
# others wait for it.
race-pool:
	$(GO) test -race -count=10 ./internal/sweep
	$(GO) test -race -count=10 -run '^(TestPlanInterruptMidExecute|TestPlansShareStore|TestMeteredSweepReusedRegistriesMatchFresh)$$' ./internal/experiments
	$(GO) test -race -count=10 -run '^TestCellPrefixConcurrentFirstRuns$$' ./internal/stepsim

# fuzz-smoke runs every Fuzz* target under internal/ and cmd/ with the
# fuzzing engine for 10 s each (plain `go test` only replays their seed
# corpora). A failing input is written under the package's
# testdata/fuzz/, where go test replays it from then on.
fuzz-smoke:
	@set -e; for f in $$(grep -rl --include='*_test.go' '^func Fuzz' internal cmd); do \
		for fz in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			echo "fuzz-smoke: $$fz in ./$$(dirname $$f)"; \
			$(GO) test -run '^$$' -fuzz "^$$fz$$" -fuzztime 10s ./$$(dirname $$f); \
		done; \
	done

# examples runs all seven example programs with small arguments and
# fails on a non-zero exit; `go vet ./...` only compiles them. It also
# runs protocol_trace twice and diffs the outputs: the p-ckpt episode on
# the process layer must print byte-identical traces.
examples:
	@set -e; dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) build -o "$$dir" ./examples/...; \
	"$$dir/global_coordination" > /dev/null; \
	"$$dir/leadtime_variability" -runs 4 > /dev/null; \
	"$$dir/model_selection" -runs 4 > /dev/null; \
	"$$dir/node_granularity" -seeds 2 > /dev/null; \
	"$$dir/quickstart" > /dev/null; \
	"$$dir/timeline" > /dev/null; \
	"$$dir/protocol_trace" > "$$dir/trace1.txt"; \
	"$$dir/protocol_trace" > "$$dir/trace2.txt"; \
	diff "$$dir/trace1.txt" "$$dir/trace2.txt"; \
	echo "examples: all seven exit 0, protocol_trace deterministic"

# errcheck flags discarded results (a bare `p.Wait(d)` or `s.Validate()`
# statement) in non-test code — the class of bug vet misses.
errcheck:
	$(GO) run ./cmd/vet-ignored ./internal ./cmd

# ci is the full gate: formatting, vet (of the benchmark module too, with
# its own tests), the ignored-result check (the
# interruptible sim calls, the fault-injector draws, bare Validate()
# statements, and the episode lifecycle hooks), build, a run of every
# example program, scenario-spec validation,
# the FULL race-enabled test suite (no -short: the
# worker-determinism sweeps and injection bit-identity tests must run
# raced — they are exactly the tests that catch cross-worker
# nondeterminism), ten raced passes over the sweep pool and the cell
# plan's concurrent tests, the un-raced allocation gates, the cold-then-warm
# cache pass, a one-iteration smoke run of the full benchmark suite
# (which includes the step-vs-process headroom pairs that
# bench-step-smoke runs alone), a short run of every fuzz target,
# and the seed-42 output-digest check of the repository benchmark. The
# raced suite runs every test once: the tier cross-validation, the step
# tier's bit-identity matrix, the machine layer and the golden tables
# are all in it, so ci does not re-run them (the crossval, race-machine
# and golden* targets remain for running one of them alone).
ci:
	$(MAKE) fmt-check
	$(GO) vet ./...
	$(MAKE) bench-check
	$(MAKE) errcheck
	$(GO) build ./...
	$(MAKE) examples
	$(MAKE) spec-validate
	$(MAKE) race
	$(MAKE) race-pool
	$(MAKE) allocs
	$(MAKE) cachepass
	$(MAKE) bench-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) bench-digest
