GO ?= go

.PHONY: all tier1 tier1-faults tier1-api tier1-obs build test short race vet fuzz cover bench bench-mem bench-smoke bench-scaling bench-cache bench-traffic-selftest

all: tier1 race vet

# tier1 is the gate every change must keep green: everything builds and
# the full test suite passes.
tier1: build test

# tier1-faults gates the robustness layer: the fault-injection grid at
# reduced resolution (guarded DUFP under every fault level must stay
# within tolerance), plus the race detector over the injector and the
# hardened controllers.
tier1-faults:
	$(GO) run ./cmd/dufpbench -faults -apps CG -runs 2
	$(GO) test -race ./internal/fault/... ./internal/control/...

# tier1-api gates the campaign daemon: the wire-schema round-trips, the
# daemon unit tests and the e2e that kills a live dufpd mid-campaign and
# requires the resumed results to be bit-identical to a cold run. The
# race detector also covers the daemon's store of run records, where a
# run's span trace and samples are retained and evicted while other runs
# still dispatch. TestGridQueueWaitBudget runs once more without it: the
# detector's slowdown voids the test's queue-wait budget, so the race
# pass checks only its concurrent clients.
tier1-api:
	$(GO) test -run 'Wire|RunSpec|RunResult|Summary' . -count=1
	$(GO) test -race ./internal/api/... -count=1
	$(GO) test -run '^TestGridQueueWaitBudget$$' ./internal/api/ -count=1

# tier1-obs gates the observability layer under the race detector: the
# metrics registry and its exemplars, both expositions rendered while
# histogram writers run, the span traces, the Perfetto export and the
# timeline join. dufpd serves the expositions over HTTP and retains the
# span traces of its recent runs; tier1-api covers both.
tier1-obs:
	$(GO) test -race ./internal/obs/... -count=1

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# short skips the multi-second measurement campaigns.
short:
	$(GO) test -short ./...

# race runs the suite under the race detector, then repeats the
# executor's stress test: the window between a submission's first memo
# lookup and its in-flight install, across the disk read between them,
# is hit only occasionally, so one pass rarely reaches it.
race:
	$(GO) test -race ./...
	$(GO) test -race -run '^TestSubmitStress$$' -count=20 ./internal/exec/

# vet also covers the benchmark module (trafficbench/ is a module of its
# own, so ./... stops at its boundary) and fails on any tracked Go file
# gofmt would rewrite.
vet:
	$(GO) vet ./...
	$(GO) -C trafficbench vet ./...
	@unformatted=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l reports unformatted files:"; echo "$$unformatted"; exit 1; fi

# fuzz runs each native fuzz target for 15 s. Three are differential:
# the simulator's copy of math/rand's jitter generator against math/rand
# itself, the RAPL limiter's kernel-built Step against its reference
# oracle, and dufpd's samples-page codec against encoding/json. The
# fourth feeds arbitrary bytes to the disk cache's DUFPSEG3 segment
# reader, the fifth arbitrary query strings to dufpd's
# /v1/runs/{id}/samples, the sixth arbitrary bytes to wirebin's run
# decoder, which the segment reader reaches only through CRC-valid
# frames, the seventh arbitrary bytes to RunResult's wire JSON decoder,
# whose decoded results must re-encode to a fixed point, and the eighth
# arbitrary bytes to the workload JSON reader, whose accepted apps must
# write and read back to a fixed point. Their seed inputs also run under
# `make test`. The segment scan's, the codec's, the run decoder's, the
# result decoder's and the workload reader's inputs are whole segments,
# pages, records and apps, and minimizing each new one for the default
# 60 s would use up their 15 s, so their minimization stops after 1 s.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzJitterRNG$$' -fuzztime 15s ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzLimiterKernel$$' -fuzztime 15s ./internal/rapl/
	$(GO) test -run '^$$' -fuzz '^FuzzSegmentScan$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/exec/diskcache/
	$(GO) test -run '^$$' -fuzz '^FuzzSamplesQuery$$' -fuzztime 15s ./internal/api/
	$(GO) test -run '^$$' -fuzz '^FuzzSamplesCodec$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/api/
	$(GO) test -run '^$$' -fuzz '^FuzzReadRun$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/wirebin/
	$(GO) test -run '^$$' -fuzz '^FuzzRunResultDecode$$' -fuzztime 15s -fuzzminimizetime 1s .
	$(GO) test -run '^$$' -fuzz '^FuzzAppJSON$$' -fuzztime 15s -fuzzminimizetime 1s ./internal/workload/

# cover enforces a floor on the telemetry layer's test coverage
# (internal/obs: the registry, the span traces and the timeline join):
# they are pure data plumbing, so near-total coverage is cheap and
# regressions there are silent otherwise.
COVER_PKGS = ./internal/obs/...
COVER_MIN  = 85.0

# bench runs the simulator's microbenchmarks: one reference tick, an
# ungoverned steady run on the fast and the reference loop, and a
# governed run without and with the span recorder, each in ns per
# simulated second. Five counts show the spread of one invocation;
# compare two commits with interleaved runs on one host, never against
# an old number. The campaign end to end is trafficbench's
# (BENCHMARK.json), and the three gates below are simbench's.
bench:
	$(GO) test -run xxx -bench 'StepPhysics|RunUngoverned|RunGoverned' -benchmem -count 5 ./internal/sim/

# bench-smoke is the CI variant: one short count of the same benchmarks.
bench-smoke:
	$(GO) test -run xxx -bench 'StepPhysics|RunUngoverned|RunGoverned' -benchtime 0.2s -benchmem ./internal/sim/

# Each gate target below runs one simbench mode: it measures one
# trajectory, writes it to an untracked file and enforces that mode's
# gate against the committed baseline.

# bench-mem measures the streaming pipeline's memory trajectory — the
# live heap retained by a fully streamed traced run at 1×/10×/100× the
# benchmark duration, plus peak campaign RSS — writes it to
# BENCH_mem.json and GATES it: a 100× figure that outgrows the 1× one
# (slice accumulation creeping back onto the streaming path) or a
# regression past the committed baseline's headroom fails the build.
bench-mem:
	$(GO) run ./cmd/simbench -gate reports/bench_baseline.json mem

# bench-cache measures the disk cache's codec throughput — cold-write
# and warm-read runs/s of the binary v3 segment format over a synthetic
# campaign — writes it to BENCH_cache.json and GATES the warm-read rate:
# a fall past the committed baseline's headroom fails the build.
bench-cache:
	$(GO) run ./cmd/simbench -gate reports/bench_baseline.json cache

# bench-scaling exercises the concurrency surface and GATES it: the
# scheduler's per-Submit overhead across -cpu values, then the
# 1000-distinct-run fleet grid at 1/4/8/16 workers written to
# BENCH_fleet.json. On a host with >= 8 CPUs a fleet_grid_speedup_p8
# below 2.5x fails the build (on smaller hosts the floor is skipped —
# the measurement is hardware-bound — and the report records bench_cpus
# so the skip is auditable). The warm fleet replay wall is bounded
# against the committed baseline's headroom on any host: cache reads do
# not need cores.
bench-scaling:
	$(GO) test -run xxx -bench 'SubmitDistinct|SubmitCached|SubmitAll' -cpu 1,4,16 -benchmem ./internal/exec/
	$(GO) run ./cmd/simbench -gate reports/bench_baseline.json fleet

# bench-traffic-selftest runs the traffic benchmark's own tests. The
# benchmark (trafficbench/, see BENCHMARK.json) is a module of its own,
# so `go test ./...` here skips it. Its tests run every workload at a
# reduced size as a separate process and check the reported metrics,
# the committed digests and the failure paths.
bench-traffic-selftest:
	cd trafficbench && $(GO) test ./...

cover:
	$(GO) test -coverprofile=cover.out $(COVER_PKGS)
	@$(GO) tool cover -func=cover.out | tail -n 1
	@total=$$($(GO) tool cover -func=cover.out | tail -n 1 | awk '{gsub(/%/, "", $$3); print $$3}'); \
	awk -v t="$$total" -v min="$(COVER_MIN)" 'BEGIN { if (t+0 < min+0) { printf "coverage %.1f%% is below the %.1f%% floor\n", t, min; exit 1 } }'
