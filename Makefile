# Convenience targets for the rijndaelip reproduction.

GO ?= go

.PHONY: all test short bench bench-smoke bench-json profile chaos-smoke triage-smoke obs-smoke vet lint race faults examples reports verify clean

all: vet test

test:
	$(GO) test ./...

short:
	$(GO) test -short ./...

bench:
	$(GO) test -bench=. -benchmem ./...

# One pass over the sharded-engine scaling curve (1/2/4/8 shards) and the
# shards x lanes grid (1/16/64 blocks per lane-packed submission), on both
# the compiled-tape and interpreted simulation backends, plus the
# per-simulator Eval micro-benchmarks and the per-lane vs transposed ROM
# gather (BenchmarkGatherROM), plus one SAT sign-off of the Encrypt
# core (BenchmarkFormalVerify): a cheap smoke that surfaces
# throughput-scaling regressions without the full bench suite. The -run
# filter adds the observability overhead gate: an instrumented engine must
# hold >= 95% of an uninstrumented twin's throughput. Wired into `verify`
# alongside vet and the race sweep.
bench-smoke:
	$(GO) test -run '^TestObsOverheadGate$$' -bench '^Benchmark(Engine|VectorLanes|ChaosRecovery)$$' -benchtime=1x .
	$(GO) test -run '^$$' -bench '^Benchmark(NetlistEval|RTLEval|GatherROM)$$' -benchtime=1x ./internal/netlist/ ./internal/rtl/ ./internal/logic/
	$(GO) test -run '^$$' -bench '^BenchmarkFormalVerify$$' -benchtime=1x ./internal/rijndael/

# Machine-readable perf trajectory: runs the engine benchmarks and writes
# cycles-per-block, Mbps and blocks/sec for every shards x lanes point —
# plus the supervised engine's chaos-recovery and triage/scrub counters
# (detections, transients, in-place recoveries, quarantines, respawns,
# scrub sweeps/corrected/uncorrectable) and the observability registry's
# final snapshot — to BENCH_engine.json, so regressions are diffable
# across PRs. The chaos_recovery faultfree/scrub row pair is the
# scrub-overhead measurement. Each sub-benchmark runs one untimed warmup
# iteration plus twenty timed ones, three times over (-count=3, best run
# kept per grid point): rates come from the warm steady state, not shard
# construction cold-start, and best-of-three damps the single-CPU
# scheduling jitter a lone run can lose a few percent to.
bench-json:
	BENCH_JSON=BENCH_engine.json $(GO) test -run '^$$' -timeout 40m -bench '^Benchmark(Engine|VectorLanes|ChaosRecovery)$$' -benchtime=20x -count=3 .
	@echo wrote BENCH_engine.json

# CPU and allocation profiles of the engine benchmark grid, captured over
# the same /debug/pprof exposition mount production engines serve via
# -metrics-addr (see internal/obs): the bench harness binds a loopback
# observability server, streams a PPROF_SECONDS CPU profile while the
# benchmarks run, and snapshots the allocation profile afterwards.
# Inspect with `go tool pprof profiles/cpu.pprof`.
profile:
	mkdir -p profiles
	PPROF_DIR=profiles PPROF_SECONDS=$${PPROF_SECONDS:-30} $(GO) test -run '^$$' -bench '^Benchmark(Engine|VectorLanes)$$' -benchtime=10x .

# A short seeded chaos run under the race detector: live strikes against a
# supervised 4-shard engine, every block checked against the software
# reference, quarantine/respawn/overhead gates enforced. Wired into
# `verify`.
chaos-smoke:
	$(GO) test -race -short -run '^TestChaosGate$$' -v ./internal/chaos/

# The mixed-fault triage gate under the race detector: seeded transient
# flips PLUS welded stuck-at ROM bits into the same live pool. Transients
# must recover in place; the EDAC-masked stuck-ats must be found by the
# background scrubber, localized to the exact ROM word, and healed by
# quarantine + respawn; zero mismatches. Wired into `verify`.
triage-smoke:
	$(GO) test -race -short -run '^TestTriageGate$$' -v ./internal/chaos/

# The observability smoke under the race detector: a supervised engine
# absorbs a welded fault while its registry and trace ring are scraped
# over live HTTP; the detection → persistent → quarantine → respawn
# ladder must be reconstructible from the trace ring alone, and the
# torn-snapshot stress must hold the Stats() invariants. Wired into
# `verify`.
obs-smoke:
	$(GO) test -race -short -run '^(TestObsSmoke|TestStatsSnapshotInvariants)$$' -v .

vet:
	$(GO) vet ./...
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi

# The full static verification suite: design-rule lint + structure reports
# over the three paper cores, the static compiled-tape audit for both
# simulators, and the stdlib-only source analyzers over every package.
# Exits nonzero on any finding. Wired into `verify`.
lint:
	$(GO) run ./cmd/lint

# The race detector roughly 10x-es the cycle-accurate simulations, so the
# racy-path sweep runs the -short suite; the full suite is covered by `test`.
race:
	$(GO) test -race -short ./...

faults:
	$(GO) run ./cmd/faultcampaign

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/smartcard
	$(GO) run ./examples/backbone
	$(GO) run ./examples/securechannel

reports:
	$(GO) run ./cmd/synthreport -sync -power -harden
	$(GO) run ./cmd/ipcompare -ablation

verify: vet lint race bench-smoke obs-smoke chaos-smoke triage-smoke
	$(GO) run ./cmd/verifyall -full

clean:
	$(GO) clean ./...
	rm -f aes128.vcd aes128.v aes128.blif test_output.txt bench_output.txt BENCH_engine.json
	rm -rf profiles
